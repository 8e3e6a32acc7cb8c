"""The two kernels behind every exact answer.

``quasi_shuffle`` produces the multiplicity table of interleave-or-merge
words for two compositions; ``chain_monomials`` enumerates the monomials of
a chained-inequality summation over a finite alphabet.

Results are cached and shared.  ``chain_monomials`` returns a tuple, so
its callers cannot change a cached entry; the dicts of ``quasi_shuffle``
must be treated as read-only.  The quasi-shuffle product is commutative:
a call with b < a forwards to (b, a), so one dict serves both orders.  Its
keys come from ``WORDS``, which holds one shared `Composition` per word;
``mul`` keys its result by them without a copy (other products key theirs
by the plain tuples they build).  The table lives as
long as the kernel cache: ``clear_caches`` empties both caches and the
table, and ``WORDS.cache_clear`` lets a scan for caches find the table.
"""

from functools import lru_cache

from quasisym.composition import Composition


class _WordTable(dict):
    def __missing__(self, word):
        # kernel words are valid by construction: no part check
        comp = self[word] = tuple.__new__(Composition, word)
        return comp


WORDS = _WordTable()
# on the instance: a scan for cache_clear also finds a class attribute and calls it unbound
WORDS.cache_clear = WORDS.clear


@lru_cache(maxsize=None)
def quasi_shuffle(a: tuple, b: tuple) -> dict:
    """Multiplicities of the quasi-shuffle words of two part tuples.

    Each word interleaves a and b keeping their internal orders, with any
    number of cross pairs merged by addition.
    """
    if b < a:
        return quasi_shuffle(b, a)
    word = WORDS
    if not a:  # () sorts first
        return {word[b]: 1}
    a0, ta, b0, tb = a[0], a[1:], b[0], b[1:]
    # words are built by unpacking: (a0,) + w would go through
    # Composition.__radd__ and check every part again
    out = {word[(a0, *w)]: m for w, m in quasi_shuffle(ta, b).items()}
    if a0 == b0:  # the only case in which two branches share keys
        for w, m in quasi_shuffle(a, tb).items():
            key = word[(b0, *w)]
            out[key] = out.get(key, 0) + m
    else:
        out.update({word[(b0, *w)]: m for w, m in quasi_shuffle(a, tb).items()})
    out.update({word[(a0 + b0, *w)]: m for w, m in quasi_shuffle(ta, tb).items()})
    return out


@lru_cache(maxsize=None)
def chain_monomials(exps: tuple, strict: tuple, n: int) -> tuple:
    """Exponent vectors of sum_{i_0 R_0 i_1 R_1 ... i_{L-1}} x_{i_0}^{e_0} ... x_{i_{L-1}}^{e_{L-1}}.

    exps gives the per-position exponents e_p; strict[p] selects < (True) or
    <= (False) between positions p and p+1; indices run over n variables.
    Distinct index tuples always yield distinct monomials, so no
    multiplicities are needed.
    """
    length = len(exps)
    if length == 0:
        return ((0,) * n,)
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
    return tuple(out)


def clear_caches():
    """Empty both kernel caches and the word table."""
    quasi_shuffle.cache_clear()
    chain_monomials.cache_clear()
    WORDS.clear()
