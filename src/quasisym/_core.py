"""The two kernels behind every exact answer, and the oracle's monomial format.

``quasi_shuffle`` produces the multiplicity table of interleave-or-merge
words for two compositions; ``chain_monomials`` enumerates the monomials of
a chained-inequality summation over a finite alphabet.

The oracle stores a monomial as one int, the exponent of x_i in bits
``W*i ..``, each below ``LIMIT``: adding two keys multiplies the monomials
and never carries into the next field, and ``check_fields`` refuses a sum
that reaches ``LIMIT``.

Results are cached and shared.  ``chain_monomials`` returns a tuple, so
its callers cannot change a cached entry; the dicts of ``quasi_shuffle``
must be treated as read-only.  The quasi-shuffle product is commutative:
a call with b < a forwards to (b, a), so one dict serves both orders.

A ``quasi_shuffle`` table is keyed by word numbers.  A word of weight
d < ``LIGHT`` is numbered by its partial-sum mask (bit s - 1 for each partial
sum s), a number in [2^(d-1), 2^d), so a caller may sum light tables in a
list; a heavier word takes the next number of a counter from 2^LIGHT, so no
number grows with a part.  ``WORDS`` numbers each word on first sight and
``NUMBERED[n]`` is word n, a plain tuple, so equal words in different tables
share one number object and one tuple.  ``PREFIXED[p][n]`` is the number of
(p, *word n): each recursion branch costs one int lookup per entry.  A
caller sums tables by number and decodes the keys of its answer once, with
``NUMBERED``.  ``WORDS.cache_clear`` empties numbers, words, per-part tables
and ``quasi_shuffle``'s cache together, in place; a light table kept past a
clear decodes once its words are numbered again, and counter numbers are
never reused.  Each entry is stored in one atomic step, so threads that
multiply at once agree on every number.

    >>> WORDS[(2, 1)], NUMBERED[6]
    (6, (2, 1))

Every memo of the package is a module-level attribute with a
``cache_clear``: ``clear_caches`` finds them afresh in every loaded
``quasisym`` module on each call and empties them all, so the next call
starts cold.
"""

import sys
from functools import lru_cache, reduce
from itertools import accumulate, count
from operator import or_
from struct import unpack as _unpack_fields

W = 32  # bits per exponent field, which unpack reads as a struct "I"
LIMIT = 1 << (W - 1)  # every stored exponent is below it


def pack(mono) -> int:
    """The key of an exponent tuple, each exponent in 0..LIMIT-1."""
    return sum(e << W * i for i, e in enumerate(mono))


def unpack(key: int, n: int) -> tuple:
    """The n exponents of a key."""
    # "<" selects struct's standard sizes: "I" is 4 bytes on every platform
    return _unpack_fields(f"<{n}I", key.to_bytes(n * W // 8, "little"))


def check_fields(keys, n: int):
    """keys, each of n fields; ValueError if one holds an exponent of LIMIT or more."""
    if reduce(or_, keys, 0) & sum(LIMIT << W * i for i in range(n)):
        raise ValueError(f"an exponent reached {LIMIT}, which a monomial cannot hold")
    return keys


class _Table(dict):
    """A dict that fills a missing key with make(key); the first value stored wins."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        return self.setdefault(key, self.make(key))  # one atomic step, for threads


def _number(word) -> int:
    """Record word under its number: its partial-sum mask if light, else a new
    counter number; `next` is one atomic step, so threads never share one."""
    word = tuple(word)
    n = sum(1 << s - 1 for s in accumulate(word)) if sum(word) < LIGHT else next(_NEXT)
    NUMBERED[n] = word
    return n


LIGHT = 30  # words of smaller weight are numbered by their partial-sum masks
_NEXT = count(1 << LIGHT)  # never reset, so no heavy number is given out twice
NUMBERED = {}  # NUMBERED[n] is the word numbered n, a plain tuple
WORDS = _Table(_number)
PREFIXED = _Table(lambda part: _Table(lambda n: WORDS[(part,) + NUMBERED[n]]))


@lru_cache(maxsize=None)
def quasi_shuffle(a: tuple, b: tuple) -> dict:
    """Multiplicities of the quasi-shuffle words of two part tuples, by word number.

    Each word interleaves a and b keeping their internal orders, with any
    number of cross pairs merged by addition.
    """
    if b < a:
        return quasi_shuffle(b, a)
    if not a:  # () sorts first
        return {WORDS[b]: 1}
    ta, tb = a[1:], b[1:]
    pa, pb, pab = PREFIXED[a[0]], PREFIXED[b[0]], PREFIXED[a[0] + b[0]]
    out = {pa[w]: m for w, m in quasi_shuffle(ta, b).items()}
    if pa is pb:  # the only case in which two branches share keys
        for w, m in quasi_shuffle(a, tb).items():
            key = pb[w]
            out[key] = out.get(key, 0) + m
    else:
        out.update({pb[w]: m for w, m in quasi_shuffle(a, tb).items()})
    out.update({pab[w]: m for w, m in quasi_shuffle(ta, tb).items()})
    return out


# on the instance: a scan for cache_clear also finds a class attribute and calls it unbound
WORDS.cache_clear = lambda: (WORDS.clear(), NUMBERED.clear(), PREFIXED.clear(),
                             quasi_shuffle.cache_clear())


@lru_cache(maxsize=None)
def chain_monomials(exps: tuple, strict: tuple, n: int) -> tuple:
    """Packed monomials of sum_{i_0 R_0 i_1 R_1 ... i_{L-1}} x_{i_0}^{e_0} ... x_{i_{L-1}}^{e_{L-1}}.

    exps gives the per-position exponents e_p; strict[p] selects < (True) or
    <= (False) between positions p and p+1; indices run over n variables.
    Distinct index tuples always yield distinct monomials, so no
    multiplicities are needed.  Exponents summing to LIMIT or more raise
    ValueError: a weak chain may put them all on one variable.
    """
    if sum(exps) >= LIMIT:
        raise ValueError(f"exponents summing to {sum(exps)} do not fit below {LIMIT}")
    length = len(exps)
    if length == 0:
        return (0,)
    # positions p..end still need need[p] strict increments after index i_p
    need = [0] * length
    for p in range(length - 2, -1, -1):
        need[p] = need[p + 1] + (1 if strict[p] else 0)
    # each prefix as (its key, the least index of the next position), in
    # lexicographic order of index tuples
    prefixes = [(0, 0)]
    for p in range(length - 1):
        e, step = exps[p], 1 if strict[p] else 0
        prefixes = [(head + (e << W * i), i + step)
                    for head, lo in prefixes for i in range(lo, n - need[p])]
    last = [exps[-1] << W * i for i in range(n)]
    return tuple([head + x for head, lo in prefixes for x in last[lo:]])


def clear_caches():
    """Empty every memo of every loaded quasisym module, the kernels' included."""
    memos = {id(value): value for name, module in list(sys.modules.items())
             if name == "quasisym" or name.startswith("quasisym.")
             for value in vars(module).values() if hasattr(value, "cache_clear")}
    for memo in memos.values():
        memo.cache_clear()
