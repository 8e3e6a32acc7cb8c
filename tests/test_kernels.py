"""The two kernels on small inputs, checked by hand, and the quasi-shuffle
kernel and both of its users, `mul` and `tensor_mul`, against a
brute-force enumeration on random part tuples and elements."""

import resource
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quasisym import _core, composition, kp, oracle
from quasisym.elements import QSymElem, monomial, to_basis
from quasisym.hopf import TensorElem, coproduct, tensor_mul
from quasisym.oracle import expand
from quasisym.products import bullet, mul


def decoded(table: dict) -> dict:
    """A kernel table with each word number replaced by its word."""
    return {_core.NUMBERED[n]: m for n, m in table.items()}


def test_pure_quasi_shuffle_basics():
    assert decoded(_core.quasi_shuffle((), (2, 1))) == {(2, 1): 1}
    assert decoded(_core.quasi_shuffle((1,), (1,))) == {(1, 1): 2, (2,): 1}
    assert decoded(_core.quasi_shuffle((1,), (2, 1))) == {
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
    assert _core.WORDS and _core.NUMBERED and _core.PREFIXED
    _core.clear_caches()
    assert not (_core.WORDS or _core.NUMBERED or _core.PREFIXED)
    assert _core.quasi_shuffle.cache_info().currsize == 0


def test_every_light_word_is_numbered_by_its_partial_sum_mask():
    bit = {s: 1 << s - 1 for s in range(1, 13)}  # the up-sweep's masks in composition
    try:
        for n in range(13):
            for c in composition.compositions_of(n):
                assert _core.WORDS[c] == composition.sums(c, bit) < 1 << n
                assert _core.NUMBERED[_core.WORDS[c]] == c
        heavy = _core.WORDS[(_core.LIGHT,)]  # counted on from 2^LIGHT, whatever its parts
        assert heavy >= 1 << _core.LIGHT and _core.NUMBERED[heavy] == (_core.LIGHT,)
    finally:
        _core.clear_caches()


def test_a_light_table_kept_past_a_clear_decodes_to_the_same_words():
    _core.clear_caches()
    table = _core.quasi_shuffle((2, 1), (1, 3))
    words = decoded(table)
    _core.clear_caches()
    assert _core.quasi_shuffle((2, 1), (1, 3)) is not table  # computed and numbered again
    assert decoded(table) == words


def test_a_product_with_a_huge_part_stays_small_and_fast():
    # a mask would be a million bits long: words of weight LIGHT or more are counted
    def small_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))

    proc = subprocess.run([sys.executable, "-m", "quasisym.cli", "eval", "h8 * M[1000000]"],
                          capture_output=True, text=True, timeout=1,
                          preexec_fn=small_address_space)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("M[1000008] + M[1,1000007] + ")


def off_by_one(k, a, b):  # a wrong written sum: one term too many
    return bullet(k, a, b) + monomial("M", (1,))


# (module, name, a wrong binding, a call whose answer a memo of the package keeps)
PLANTED = [
    (oracle, "chain_monomials", lambda *args: (), lambda: expand(monomial("M", (1, 2)), 3)),
    (kp, "bullet", off_by_one, lambda: kp.kp_identity(1, 2)),
    (composition, "combinations", lambda pool, r: iter(()), lambda: composition.compositions_of(4)),
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
    assert decoded(table) == reference_quasi_shuffle(a, b)
    assert _core.quasi_shuffle(b, a) is table  # one dict per unordered pair
    assert all(type(w) is tuple for w in decoded(table))
    other = {_core.NUMBERED[n]: n for n in _core.quasi_shuffle(c, d)}
    for n in table:
        w = _core.NUMBERED[n]
        assert other.get(w, n) == n  # an equal word has one number, so one shared tuple
        assert _core.WORDS[w] == n


reference = cache(reference_quasi_shuffle)  # the brute force is slow past weight 4


def reference_mul(a: QSymElem, b: QSymElem) -> QSymElem:
    """a * b as a pair loop over the M terms of a and b, on int numerators."""
    (na, da), (nb, db) = to_basis(a, "M").form, to_basis(b, "M").form
    out = Counter()
    for A, x in na.items():
        for B, y in nb.items():
            for w, m in reference(tuple(A), tuple(B)).items():
                out[w] += x * y * m
    return QSymElem("M", {w: Fraction(v, da * db) for w, v in out.items()})


def reference_tensor_mul(t: TensorElem, u: TensorElem) -> TensorElem:
    """t * u leg by leg: (A (x) B)(C (x) D) = AC (x) BD, each leg by the brute force."""
    out = Counter()
    for (A, B), x in t.nums.items():
        for (C, D), y in u.nums.items():
            for v, m in reference(tuple(A), tuple(C)).items():
                for w, n in reference(tuple(B), tuple(D)).items():
                    out[v, w] += x * y * m * n
    return TensorElem({vw: Fraction(c, t.den * u.den) for vw, c in out.items()})


def test_clearing_the_numbering_alone_clears_every_table_that_holds_numbers():
    a, b = QSymElem("F", {(2, 1): 3, (1,): Fraction(1, 2)}), QSymElem("Mt", {(1, 2): -1})
    c, d = QSymElem("M", {(3,): 2, (1, 1): 1}), QSymElem("F", {(1, 1, 1): 1})
    first = mul(a, b)
    _core.WORDS.cache_clear()  # a table kept past this point decodes only once its words are renumbered
    assert mul(c, d) == reference_mul(c, d)
    assert mul(a, b) == first == reference_mul(a, b)


small_parts = st.lists(st.integers(1, 5), max_size=5).filter(lambda c: sum(c) <= 5).map(tuple)
operands = st.builds(  # rational, in a random basis, weight <= 5
    QSymElem, st.sampled_from(("M", "Mt", "F")),
    st.dictionaries(small_parts, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                    max_size=3))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.booleans(), operands, operands), min_size=1, max_size=3))
def test_mul_and_tensor_mul_against_the_reference_with_caches_cleared_between(steps):
    for clear, a, b in steps:
        if clear:
            _core.clear_caches()
        assert mul(a, b) == reference_mul(a, b)
        t, u = coproduct(a), coproduct(b)
        assert tensor_mul(t, u) == reference_tensor_mul(t, u)


def test_threads_that_multiply_at_once_agree_on_every_word_number():
    # cold products on 8 threads at once number many new words together: a word
    # given two numbers, or a number read off another thread's word, changes a sum
    pairs = [(QSymElem("F", {(i % 3 + 1, 2, 1, i % 2 + 1): 1, (1, i % 4 + 1): 2}),
              QSymElem("Mt", {(2, i % 2 + 1, 1): 1})) for i in range(8)]
    _core.clear_caches()
    want = [reference_mul(a, b) for a, b in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            _core.clear_caches()
            got = [None] * len(pairs)
            threads = [threading.Thread(target=lambda i=i: got.__setitem__(i, mul(*pairs[i])))
                       for i in range(len(pairs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert not any(thread.is_alive() for thread in threads)
            assert got == want
    finally:
        sys.setswitchinterval(interval)
        _core.clear_caches()
