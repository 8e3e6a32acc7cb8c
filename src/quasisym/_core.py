"""The two kernels behind every exact answer.

``quasi_shuffle`` produces the multiplicity table of interleave-or-merge
words for two compositions; ``chain_monomials`` enumerates the monomials of
a chained-inequality summation over a finite alphabet.

Returned dicts and lists are cached and shared: treat them as read-only.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def quasi_shuffle(a: tuple, b: tuple) -> dict:
    """Multiplicities of the quasi-shuffle words of two part tuples.

    Each word interleaves a and b keeping their internal orders, with any
    number of cross pairs merged by addition.
    """
    if not a:
        return {b: 1}
    if not b:
        return {a: 1}
    out = {}
    for head, ta, tb in ((a[0], a[1:], b), (b[0], a, b[1:]), (a[0] + b[0], a[1:], b[1:])):
        for comp, mult in quasi_shuffle(ta, tb).items():
            key = (head,) + comp
            out[key] = out.get(key, 0) + mult
    return out


@lru_cache(maxsize=None)
def chain_monomials(exps: tuple, strict: tuple, n: int) -> list:
    """Exponent vectors of sum_{i_0 R_0 i_1 R_1 ... i_{L-1}} x_{i_0}^{e_0} ... x_{i_{L-1}}^{e_{L-1}}.

    exps gives the per-position exponents e_p; strict[p] selects < (True) or
    <= (False) between positions p and p+1; indices run over n variables.
    Distinct index tuples always yield distinct monomials, so no
    multiplicities are needed.
    """
    length = len(exps)
    if length == 0:
        return [(0,) * n]
    # positions p..end still need need[p] strict increments after index i_p
    need = [0] * length
    for p in range(length - 2, -1, -1):
        need[p] = need[p + 1] + (1 if strict[p] else 0)
    out = []
    vec = [0] * n
    def rec(pos, lo):
        hi = n - need[pos]  # exclusive upper bound for this position's index
        e = exps[pos]
        if pos == length - 1:
            for i in range(lo, hi):
                vec[i] += e
                out.append(tuple(vec))
                vec[i] -= e
            return
        step = 1 if strict[pos] else 0
        for i in range(lo, hi):
            vec[i] += e
            rec(pos + 1, i + step)
            vec[i] -= e
    rec(0, 0)
    return out


def clear_caches():
    quasi_shuffle.cache_clear()
    chain_monomials.cache_clear()
