"""The two kernels on small inputs, checked by hand, and the quasi-shuffle
kernel against a brute-force enumeration on random part tuples."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quasisym import _core, composition, kp, oracle
from quasisym.elements import monomial
from quasisym.oracle import expand
from quasisym.products import bullet


def test_pure_quasi_shuffle_basics():
    assert _core.quasi_shuffle((), (2, 1)) == {(2, 1): 1}
    assert _core.quasi_shuffle((1,), (1,)) == {(1, 1): 2, (2,): 1}
    assert _core.quasi_shuffle((1,), (2, 1)) == {
        (1, 2, 1): 1,
        (3, 1): 1,
        (2, 1, 1): 2,
        (2, 2): 1,
    }


def chain_exponents(exps, strict, n):
    """chain_monomials' packed monomials as exponent tuples."""
    return [_core.unpack(key, n) for key in _core.chain_monomials(exps, strict, n)]


def test_pure_chain_monomials_basics():
    assert chain_exponents((), (), 3) == [(0, 0, 0)]
    assert sorted(chain_exponents((1, 1), (True,), 3)) == [
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
    ]
    # weak chain merges exponents at equal indices
    assert sorted(chain_exponents((1, 1), (False,), 2)) == [
        (0, 2),
        (1, 1),
        (2, 0),
    ]
    # more strict steps than variables: empty
    assert _core.chain_monomials((1, 1, 1), (True, True), 2) == ()


def test_cached_chain_monomials_cannot_be_corrupted():
    # the oracle's basis cache and expand_bullet read the kernel's cached result;
    # cold first, so that expand reads the entry written to below
    _core.clear_caches()
    try:
        with pytest.raises(AttributeError):
            _core.chain_monomials((1,), (), 2).append((9, 9))
        assert str(expand(monomial("M", (1,)), 2)) == "x1 + x2"
    finally:
        _core.clear_caches()


def test_clear_caches_empties_the_word_table():
    _core.quasi_shuffle((1, 2), (2,))
    assert _core.WORDS
    _core.clear_caches()
    assert not _core.WORDS
    assert _core.quasi_shuffle.cache_info().currsize == 0


def off_by_one(k, a, b):  # a wrong written sum: one term too many
    return bullet(k, a, b) + monomial("M", (1,))


# (module, name, a wrong binding, a call whose answer a memo of the package keeps)
PLANTED = [
    (oracle, "chain_monomials", lambda *args: (), lambda: expand(monomial("M", (1, 2)), 3)),
    (kp, "bullet", off_by_one, lambda: kp.kp_identity(1, 2)),
    (composition, "sweeps", lambda terms, *passes: {}, lambda: composition.compositions_of(4)),
]


@pytest.mark.parametrize("module, name, fault, probe", PLANTED,
                         ids=[f"{m.__name__}.{name}" for m, name, _, _ in PLANTED])
def test_a_fault_planted_after_clear_caches_shows(module, name, fault, probe, monkeypatch):
    # the answer before the fault is memoized: clear_caches alone must let the fault through
    right = probe()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fault)
            _core.clear_caches()
            assert probe() != right
    finally:
        _core.clear_caches()


def reference_quasi_shuffle(a: tuple, b: tuple) -> dict:
    """Words of a and b by placement: a word of length L puts the parts of a
    and of b at increasing positions, the two position sets covering 0..L-1;
    a position holding one part of each is a merge."""
    out = Counter()
    for length in range(max(len(a), len(b)), len(a) + len(b) + 1):
        for at_a in combinations(range(length), len(a)):
            for at_b in combinations(range(length), len(b)):
                if len(set(at_a) | set(at_b)) < length:
                    continue
                word = [0] * length
                for i, part in zip(at_a, a):
                    word[i] += part
                for i, part in zip(at_b, b):
                    word[i] += part
                out[tuple(word)] += 1
    return dict(out)


def test_reference_quasi_shuffle_by_hand():
    assert reference_quasi_shuffle((), ()) == {(): 1}
    assert reference_quasi_shuffle((1,), (1,)) == {(1, 1): 2, (2,): 1}


part_tuples = st.lists(st.integers(1, 3), max_size=4).map(tuple)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(part_tuples, part_tuples, part_tuples, part_tuples)
def test_quasi_shuffle_against_brute_force_and_its_shared_words(a, b, c, d):
    table = _core.quasi_shuffle(a, b)
    assert table == reference_quasi_shuffle(a, b)
    assert _core.quasi_shuffle(b, a) is table  # one dict per unordered pair
    assert all(type(w) is tuple for w in table)
    other = {w: w for w in _core.quasi_shuffle(c, d)}
    for w in table:
        assert other.get(w, w) is w  # an equal word is the same object
        assert _core.WORDS[w] is w
