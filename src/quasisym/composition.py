"""Compositions: finite sequences of positive integers.

Compositions index every basis handled by this package.  The module keeps
all the purely combinatorial operations on them in one place: refinement
and coarsening, the block decomposition into runs ``(head, 1, ..., 1)``,
the involution driving the antipode on the fundamental basis, and a
canonical enumeration order used for deterministic output everywhere else.

A word is the set of its partial sums, its gap set, encoded as a bit mask
(`sums`): coarsenings are subsets and refinements supersets (Stanley, EC1
1.2; Gessel 1984), and both, like every base change, are Yates's sweeps over
the masks (`sweep`).  Only `compositions_of` is cached.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, pairwise
from operator import sub


def positive_index(k, what: str, least: int = 1) -> int:
    """k if it is an int >= least; bools, floats and the rest raise ValueError.

    The one integer rule: every part, index, variable count and exponent in
    the package goes through it, because each ends up in keys that are not
    checked again.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {k!r}")
    return k


class Composition(tuple):
    """An immutable sequence of positive integers, possibly empty.

    Prints in the CLI text form, e.g. ``[2,1,3]`` and ``[]``.

    >>> Composition((2, 1, 3)).weight
    6
    >>> concat(Composition(), (4,))
    [4]
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(parts)
        for p in parts:
            positive_index(p, "composition part")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"

    __str__ = __repr__


EMPTY = Composition()


def canonical_key(c):
    """Total order: weight, then length, then lexicographic on parts."""
    return (sum(c), len(c), c)


def concat(a, b) -> Composition:
    return Composition(tuple(a) + tuple(b))


def reverse(c) -> Composition:
    return Composition(tuple(c)[::-1])


@lru_cache(maxsize=None, typed=True)
def compositions_of(n: int) -> tuple:
    """All compositions of weight n, sorted canonically: one per subset of the
    n - 1 gaps, so 2^(n-1) of them for n >= 1.  Within a length, the order of
    the cut points is the order of the parts."""
    if not positive_index(n, "weight", least=0):
        return (EMPTY,)
    return tuple(tuple.__new__(Composition, map(sub, (*cuts, n), (0, *cuts)))  # positive parts
                 for length in range(n) for cuts in combinations(range(1, n), length))


def enumerate_compositions(max_weight: int) -> list:
    """All compositions of weight 0..max_weight in canonical order."""
    return [c for n in range(positive_index(max_weight, "max_weight", least=0) + 1)
            for c in compositions_of(n)]


def coarsenings(c) -> frozenset:
    """The subsets of c's gap set: sums of runs of adjacent parts, 2^(len(c)-1)."""
    return frozenset(sweeps({Composition(c): 1}, (False, 1)))


def refinements(c) -> frozenset:
    """All D with c in coarsenings(D): the supersets of c's gap set."""
    return frozenset(sweeps({Composition(c): 1}, (True, 1)))


def sums(word, bit) -> int:
    """The gap set of word as a mask: the sum of bit[s] over its partial sums s."""
    return sum(map(bit.__getitem__, accumulate(word)))


def from_sums(mask: int, point) -> Composition:
    """Inverse of `sums`: point[b] is the partial sum that the bit b stands for."""
    parts, last = [], 0
    while mask:
        low = mask & -mask
        s = point[low]
        parts.append(s - last)
        last, mask = s, mask ^ low
    return tuple.__new__(Composition, parts)  # positive: differences of increasing sums


def sweep(acc: dict, up: bool, sign: int = 1) -> dict:
    """Yates's method on a {mask: int} map, in place: for each gap g, every key
    that lacks g (up) or holds g (down) adds sign times its value to the key with
    g flipped.  A key's gaps are the bits below its top bit; sign -1 inverts."""
    for g in range(max(acc, default=1).bit_length() - 1):
        bit, hold = 1 << g, 0 if up else 1 << g
        for key, value in [(k ^ bit, v) for k, v in acc.items() if k & bit == hold and k >> g > 1]:
            acc[key] = acc.get(key, 0) + sign * value
    return acc


def sweeps(terms: dict, *passes) -> dict:
    """A {word: int} map after one `sweep` per (up, sign) pass, as {Composition:
    int} without zeros.  A pass up needs every point below the top weight; on
    the way down the points are the words' partial sums, so a huge part is one bit."""
    points = (range(1, max(map(sum, terms), default=0) + 1) if any(p[0] for p in passes)
              else sorted({s for word in terms for s in accumulate(word)}))
    bit = {s: 1 << i for i, s in enumerate(points)}  # increasing, so the weight is the top bit
    acc = {sums(word, bit): value for word, value in terms.items()}
    for p in passes:
        sweep(acc, *p)
    point = {b: s for s, b in bit.items()}
    return {from_sums(mask, point): value for mask, value in acc.items() if value}


def elementary_decompose(c):
    """Unique block decomposition (m_1, n_1), ..., (m_r, n_r).

    The blocks reassemble to c as (m_1+1, 1^{n_1}, m_2+2, 1^{n_2}, ...):
    a block starts at the first part or at a part >= 2, its head is m_1+1
    for the first block and m_i+2 after it, and n_i ones follow up to the
    next block start.
    """
    c = Composition(c)
    if not c:
        raise ValueError("empty composition has no block decomposition")
    starts = [0, *(i for i in range(1, len(c)) if c[i] > 1)]
    return tuple((c[a] - (2 if a else 1), b - a - 1) for a, b in pairwise((*starts, len(c))))


def elementary_compose(blocks) -> Composition:
    """Inverse of elementary_decompose."""
    parts = []
    for j, (m, n) in enumerate(blocks):
        parts.append(positive_index(m, "block parameter", least=0) + (1 if j == 0 else 2))
        parts.extend([1] * positive_index(n, "block parameter", least=0))
    return Composition(parts)


def omega(c) -> Composition:
    """The involution with S(F_C) = (-1)^|C| F_{omega(C)}.

    Swaps each block's parameters and reverses the block order; on a single
    block this sends (m+1, 1^n) to (n+1, 1^m).
    """
    blocks = elementary_decompose(c)
    return elementary_compose([(n, m) for (m, n) in reversed(blocks)])
