from functools import lru_cache

import pytest

from quasisym.composition import (
    Composition,
    EMPTY,
    canonical_key,
    coarsenings,
    compositions_of,
    concat,
    elementary_compose,
    elementary_decompose,
    enumerate_compositions,
    omega,
    refinements,
    reverse,
)


def C(*parts):
    return Composition(parts)


def test_validation():
    with pytest.raises(ValueError):
        Composition((0,))
    with pytest.raises(ValueError):
        Composition((2, -1))
    assert Composition(()) == EMPTY
    assert C(2, 1, 3).weight == 6
    assert len(C(2, 1, 3)) == 3
    assert EMPTY.weight == 0


def test_concat():
    assert concat(C(2), C(1, 3)) == C(2, 1, 3)
    assert concat(EMPTY, C(4)) == C(4)
    assert concat(C(4), EMPTY) == C(4)
    assert concat(C(1, 1), C(1, 1)) == C(1, 1, 1, 1)
    assert C(2) + C(1, 3) == C(2, 1, 3)
    # associative with identity
    assert concat(concat(C(1), C(2)), C(3)) == concat(C(1), concat(C(2), C(3)))


def test_a_composition_concatenates_as_a_plain_tuple():
    # outside input is checked where it enters: Composition(...), concat and
    # each element constructor, not at every concatenation
    from quasisym.elements import QSymElem

    word = C(1) + (0,)
    assert type(word) is tuple and word == (1, 0)
    assert type((0,) + C(1)) is tuple and type(C(1) + C(2)) is tuple
    with pytest.raises(ValueError):
        QSymElem("M", {word: 1})
    assert type(concat(C(1), (2,))) is Composition
    with pytest.raises(ValueError):
        concat(C(1), (0,))


def test_reverse():
    assert reverse(C(3, 1, 2)) == C(2, 1, 3)
    assert reverse(EMPTY) == EMPTY
    assert reverse(C(5)) == C(5)
    for c in enumerate_compositions(5):
        assert reverse(reverse(c)) == c


def test_coarsenings():
    assert coarsenings(C(1, 1)) == frozenset({C(1, 1), C(2)})
    assert coarsenings(C(3, 1)) == frozenset({C(3, 1), C(4)})
    assert coarsenings(C(1, 1, 1)) == frozenset({C(1, 1, 1), C(2, 1), C(1, 2), C(3)})
    assert coarsenings(EMPTY) == frozenset({EMPTY})


def test_refinements():
    assert refinements(C(3, 1)) == frozenset(
        {C(3, 1), C(1, 2, 1), C(2, 1, 1), C(1, 1, 1, 1)}
    )
    assert refinements(C(2)) == frozenset({C(2), C(1, 1)})
    assert refinements(C(4)) == frozenset(compositions_of(4))


@pytest.mark.parametrize("bad", [(True, 2), (1.0, 2), (1, 2.0), (True, 2.0)])
def test_cached_refinements_check_their_parts(bad):
    # (True, 2) and (1.0, 2) hash and compare equal to (1, 2), so a cached
    # entry for (1, 2) must not answer them
    refinements((1, 2))
    coarsenings((1, 2))
    with pytest.raises(ValueError):
        refinements(bad)
    with pytest.raises(ValueError):
        coarsenings(bad)


def test_empty_coarsening_is_a_composition_after_a_plain_tuple_call():
    # a plain () hashes and compares equal to EMPTY, and the answer for
    # either must be made of Compositions, not of the plain argument
    for call in ((), Composition(), ()):
        for c in (*coarsenings(call), *refinements(call)):
            assert type(c) is Composition and c == EMPTY


def test_coarsen_refine_duality():
    for c in enumerate_compositions(5):
        assert c in coarsenings(c)
        assert c in refinements(c)
        for d in coarsenings(c):
            assert d.weight == c.weight
            assert len(d) <= len(c)
            assert c in refinements(d)
    for n in range(1, 7):
        assert len(refinements(C(n))) == 2 ** (n - 1)


def test_elementary_decompose():
    assert elementary_decompose(C(3, 1)) == ((2, 1),)
    assert elementary_decompose(C(2, 1, 3, 1, 1)) == ((1, 1), (1, 2))
    assert elementary_decompose(C(1)) == ((0, 0),)
    with pytest.raises(ValueError):
        elementary_decompose(EMPTY)


def test_elementary_round_trip():
    for c in enumerate_compositions(7):
        if not c:
            continue
        assert elementary_compose(elementary_decompose(c)) == c


def test_omega():
    assert omega(C(3, 1)) == C(2, 1, 1)
    assert omega(C(1)) == C(1)
    assert omega(C(2, 3)) == C(1, 1, 2, 1)
    with pytest.raises(ValueError):
        omega(EMPTY)
    for c in enumerate_compositions(7):
        if not c:
            continue
        assert omega(omega(c)) == c
        assert omega(c).weight == c.weight


def test_enumerate_compositions():
    assert enumerate_compositions(0) == [EMPTY]
    assert enumerate_compositions(2) == [EMPTY, C(1), C(2), C(1, 1)]
    assert len(enumerate_compositions(4)) == 16
    for n in range(1, 8):
        assert len(compositions_of(n)) == 2 ** (n - 1)
    ordered = enumerate_compositions(6)
    keys = [canonical_key(c) for c in ordered]
    assert keys == sorted(keys)


# -- the earlier implementations, kept as references ----------------------
# compositions by first part, coarsenings by a gap bitmask, refinements by
# concatenation, blocks by a two-index scan

@lru_cache(maxsize=None)
def ref_compositions_of(n):
    if n == 0:
        return (EMPTY,)
    out = []
    for first in range(1, n + 1):
        for rest in ref_compositions_of(n - first):
            out.append(Composition((first,) + rest))
    out.sort(key=canonical_key)
    return tuple(out)


def ref_coarsenings(c):
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


def ref_refinements(c):
    out = [EMPTY]
    for part in c:
        out = [prefix + piece for prefix in out for piece in ref_compositions_of(part)]
    return frozenset(out)


def ref_elementary_decompose(c):
    blocks = []
    i = 0
    while i < len(c):
        head = c[i]
        m = head - 1 if not blocks else head - 2
        i += 1
        n = 0
        while i < len(c) and c[i] == 1:
            n += 1
            i += 1
        blocks.append((m, n))
    return tuple(blocks)


def test_compositions_of_equals_the_reference_in_order():
    for n in range(13):
        got = compositions_of(n)
        assert got == ref_compositions_of(n)
        assert all(type(c) is Composition for c in got)


def test_compositions_of_equals_the_sorted_refinements_of_one_part():
    # the enumeration by cut points replaced this sort of the refinement sweep
    for n in range(15):
        assert compositions_of(n) == tuple(sorted(refinements((n,) if n else ()), key=canonical_key))


def test_coarsenings_refinements_and_blocks_equal_the_reference():
    for c in enumerate_compositions(8):
        assert coarsenings(c) == ref_coarsenings(c)
        assert refinements(c) == ref_refinements(c)
        assert all(type(d) is Composition for d in coarsenings(c) | refinements(c))
        if c:
            assert elementary_decompose(c) == ref_elementary_decompose(c)
