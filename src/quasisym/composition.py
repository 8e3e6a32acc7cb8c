"""Compositions: finite sequences of positive integers.

Compositions index every basis handled by this package.  The module keeps
all the purely combinatorial operations on them in one place: refinement
and coarsening, the block decomposition into runs ``(head, 1, ..., 1)``,
the involution driving the antipode on the fundamental basis, and a
canonical enumeration order used for deterministic output everywhere else.
"""

from __future__ import annotations

from functools import lru_cache


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
    >>> Composition() + Composition((4,))
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

    def __add__(self, other):
        return Composition(tuple.__add__(self, tuple(other)))

    def __radd__(self, other):
        return Composition(tuple(other) + tuple(self))

    def __repr__(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"

    __str__ = __repr__


EMPTY = Composition()


def canonical_key(c):
    """Total order: weight, then length, then lexicographic on parts."""
    return (sum(c), len(c), tuple(c))


def concat(a, b) -> Composition:
    return Composition(tuple(a) + tuple(b))


def reverse(c) -> Composition:
    return Composition(tuple(c)[::-1])


@lru_cache(maxsize=None, typed=True)
def compositions_of(n: int) -> tuple:
    """All compositions of weight n, sorted canonically. 2^(n-1) of them for n >= 1."""
    if positive_index(n, "weight", least=0) == 0:
        return (EMPTY,)
    out = []
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            out.append(Composition((first,) + rest))
    out.sort(key=canonical_key)
    return tuple(out)


def enumerate_compositions(max_weight: int) -> list:
    """All compositions of weight 0..max_weight in canonical order."""
    out = []
    for n in range(positive_index(max_weight, "max_weight", least=0) + 1):
        out.extend(compositions_of(n))
    return out


@lru_cache(maxsize=None)
def coarsenings(c) -> frozenset:
    """All compositions obtained by summing runs of adjacent parts (c included).

    A coarsening picks a subset of the len(c)-1 internal gaps to merge, and
    distinct subsets give distinct results, so there are 2^(len(c)-1) of them.
    """
    c = Composition(c)
    if len(c) <= 1:
        return frozenset({c})
    out = set()
    # gap mask bit i set = keep the boundary after part i
    for mask in range(1 << (len(c) - 1)):
        parts = [c[0]]
        for i in range(1, len(c)):
            if mask & (1 << (i - 1)):
                parts.append(c[i])
            else:
                parts[-1] += c[i]
        out.add(Composition(parts))
    return frozenset(out)


@lru_cache(maxsize=None)
def refinements(c) -> frozenset:
    """All D with c in coarsenings(D): split each part into an ordered sum."""
    c = Composition(c)
    out = [EMPTY]
    for part in c:
        out = [prefix + piece for prefix in out for piece in compositions_of(part)]
    return frozenset(out)


def elementary_decompose(c):
    """Unique block decomposition (m_1, n_1), ..., (m_r, n_r).

    The blocks reassemble to c as (m_1+1, 1^{n_1}, m_2+2, 1^{n_2}, ...):
    the first block head is m_1+1, later heads are m_i+2, and each head is
    followed by a maximal run of n_i ones.
    """
    c = Composition(c)
    if not c:
        raise ValueError("empty composition has no block decomposition")
    blocks = []
    i = 0
    while i < len(c):
        head = c[i]
        if not blocks:
            m = head - 1
        else:
            # later heads terminated the previous 1-run, so head >= 2
            m = head - 2
        i += 1
        n = 0
        while i < len(c) and c[i] == 1:
            n += 1
            i += 1
        blocks.append((m, n))
    return tuple(blocks)


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
