"""The two accumulation loops of the sparse core: `convolve` for keys that
add, and `bilinear` for an image given on keys, a tuple or any mapping; the
graded products, one dict comprehension where no two term pairs give one
word and `convolve` where they do; and `mul`, which sums the kernel tables in
a list indexed by word number when its answer is dense, else in a dict.

The references are the loops they replaced, kept here as written before:
the pair loop that the graded products and `Polynomial._product` each
spelled out, `m_k` as a full `bullet` per tensor term through `_collapse`,
and `mul` as a pair loop that decodes every table entry.  Seeds are
derandomized, so runs are repeatable.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings, strategies as st

from quasisym import products
from quasisym._core import LIGHT, NUMBERED, pack, quasi_shuffle
from quasisym.composition import Composition
from quasisym.elements import QSymElem, bilinear, convolve, linear, monomial, one, reduced, to_basis
from quasisym.hopf import TensorElem, _collapse, coproduct, m_k
from quasisym.products import _bullet_words, _hat_words, bullet, hat_bullet, mul

SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)

ONE_A, ONE_B = ({(1,): 1}, 1), ({(2,): 1}, 1)


@pytest.mark.parametrize("image, multiplicity", [
    (lambda a, b: {a + b: 2}, 2),
    (lambda a, b: MappingProxyType({a + b: 2}), 2),
    (lambda a, b: Counter({a + b: 3}), 3),
    (lambda a, b: (a + b, a + b), 2),
], ids=["dict", "read-only mapping", "Counter", "tuple with a repeated key"])
def test_bilinear_keeps_the_multiplicities_of_any_image(image, multiplicity):
    assert bilinear(ONE_A, ONE_B, image) == ({(1, 2): multiplicity}, 1)
    assert linear(ONE_A, lambda a: image(a, (3,))) == ({(1, 3): multiplicity}, 1)


def test_bilinear_scales_a_mapping_image_by_both_numerators():
    left, right = ({(1,): 3, (2,): -1}, 2), ({(1,): 5}, 3)
    image = lambda a, b: MappingProxyType({a + b: 2, b: 1})
    # 15 * (2 M11 + M1) - 5 * (2 M21 + M1) over 6, reduced by 2
    assert bilinear(left, right, image) == ({(1, 1): 15, (1,): 5, (2, 1): -5}, 3)


def pair_loop(left, right, den):
    """The product of two numerator maps whose keys add, as written out by hand
    before `convolve`: one accumulator, keyed by the sum of each pair of keys."""
    right = list(right.items())
    acc = defaultdict(int)
    for u, x in left.items():
        for v, y in right:
            acc[u + v] += x * y
    return reduced(acc, den)


numerators = st.integers(-3, 3).filter(bool)
words = st.lists(st.integers(1, 3), max_size=3).map(tuple)
monomials = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(pack)
dens = st.sampled_from((1, 2, 3, 4, 6, 12))


@SETTINGS
@given(st.sampled_from((words, monomials)).flatmap(
    lambda keys: st.tuples(*[st.dictionaries(keys, numerators, max_size=5)] * 2)), dens)
def test_convolve_is_the_pair_loop(maps, den):
    left, right = maps
    nums, d = convolve(left, right, den)
    assert (nums, d) == pair_loop(left, right, den)
    assert 0 not in nums.values() and gcd(d, *nums.values()) == 1
    # and the sums the form stands for, pair by pair, with Fractions
    sums = defaultdict(Fraction)
    for u, x in left.items():
        for v, y in right.items():
            sums[u + v] += Fraction(x * y, den)
    assert {k: Fraction(v, d) for k, v in nums.items()} == {k: v for k, v in sums.items() if v}


def test_convolve_takes_any_mapping_and_writes_neither_operand():
    left, right = {(1,): 2}, MappingProxyType({(2,): 3, (): 1})
    assert convolve(left, right, 4) == ({(1, 2): 3, (1,): 1}, 2)
    assert left == {(1,): 2} and dict(right) == {(2,): 3, (): 1}


def test_word_images_are_tuples_not_generators():
    for words_of in (_bullet_words, _hat_words):
        for A, B in [((), ()), ((1,), ()), ((), (2,)), ((1, 2), (3,))]:
            out = words_of(2, A, B)
            assert type(out) is tuple
            assert all(type(w) is tuple for w in out)


def m_k_by_bullets(k, t):
    """m_k as it was: one `bullet` of two basis elements per tensor term."""
    return _collapse(t, lambda a, b: bullet(k, a, b))


fractions = st.builds(Fraction, numerators, st.sampled_from((1, 2, 3, 4)))
compositions = st.lists(st.integers(1, 3), max_size=3).filter(lambda c: sum(c) <= 4)
tensors = st.dictionaries(st.tuples(compositions.map(tuple), compositions.map(Composition)),
                          fractions, max_size=5).map(TensorElem)


@SETTINGS
@given(tensors, tensors, st.integers(1, 3))
def test_m_k_is_a_bullet_per_tensor_term(t, u, k):
    for tensor in (t, t - u, coproduct(m_k(k, u)) + t):
        out = m_k(k, tensor)
        assert out == m_k_by_bullets(k, tensor)
        assert out.form == m_k_by_bullets(k, tensor).form
        assert out.basis == "M"


@pytest.mark.parametrize("k", [0, -1, 1.0, True])
def test_m_k_refuses_a_bad_index(k):
    with pytest.raises(ValueError):
        m_k(k, TensorElem({((1,), ()): 1}))


def graded_by_pair_loop(k, a, b, hat):
    """a o_k b (a o^_k b if hat) by `pair_loop` over the unit form, and whether
    two term pairs give one word."""
    (na, da), (nb, db) = a.form, b.form
    if hat:
        left = {C: x for A, x in na.items() for C in _hat_words(k, A, ())}
        right = {tuple(B): y for B, y in nb.items()}
    else:
        left = {tuple(A): x for A, x in na.items()}
        right = {C: y for B, y in nb.items() for C in _bullet_words(k, (), B)}
    words = [u + v for u in left for v in right]
    return pair_loop(left, right, da * db), len(set(words)) < len(words)


def prefix_free(ws):
    return not any(u != v and v[:len(u)] == u for u in ws for v in ws)


mixed_forms = st.dictionaries(words, fractions, min_size=2, max_size=5).filter(
    lambda f: len({sum(w) for w in f}) > 1)


@SETTINGS
@given(mixed_forms, mixed_forms, st.integers(1, 3), st.booleans(), st.booleans(),
       st.integers(1, 3), st.tuples(*[fractions] * 4))
def test_graded_products_on_mixed_weights_are_the_pair_loop(a, b, k, hat, meet, j, planted):
    # Words of two pairs of a o_k b meet only when a word of a is a prefix of
    # another (of b, a suffix, for o^_k).  A meeting is planted as M[j] and
    # M[j,k] against 1 and M[k]; otherwise a (b) is free of prefixes (suffixes).
    words_side, unit_side = (b, a) if hat else (a, b)
    if meet:
        words_side = {**words_side, (j,): planted[0], ((k, j) if hat else (j, k)): planted[1]}
        unit_side = {**unit_side, (): planted[2], (k,): planted[3]}
    else:
        assume(prefix_free([w[::-1] for w in words_side] if hat else words_side))
    a, b = (unit_side, words_side) if hat else (words_side, unit_side)
    a, b = QSymElem("M", a), QSymElem("M", b)
    out = (hat_bullet if hat else bullet)(k, a, b)
    form, met = graded_by_pair_loop(k, a, b, hat)
    assert met == meet
    assert out.form == form and out.basis == "M"


@SETTINGS
@given(st.dictionaries(words, fractions, max_size=5), st.dictionaries(words, fractions, max_size=5),
       st.integers(1, 3), st.booleans())
def test_graded_products_read_composition_keys_as_plain_tuples(a, b, k, hat):
    # constructor-built operands store Compositions; the same forms rebuilt
    # with plain-tuple keys give the same answer, and every answer word is a tuple
    built = QSymElem("M", a), QSymElem("M", b)
    assert all(type(w) is Composition for e in built for w in e.nums)
    plain = [QSymElem._raw("M", {tuple(w): x for w, x in e.nums.items()}, e.den) for e in built]
    product = hat_bullet if hat else bullet
    out = product(k, *built)
    assert out.form == product(k, *plain).form
    assert all(type(w) is tuple for w in out.nums)


def test_a_collision_adds_its_pairs():
    # (1) + (1,1) and (1,1) + (1) give one word, so M[1,1,1] counts twice
    M1, M11 = monomial("M", (1,)), monomial("M", (1, 1))
    assert bullet(1, M1 + M11, one() + M1) == QSymElem("M", {
        (1, 1): 1, (1, 2): 1, (1, 1, 1): 2, (1, 1, 2): 1, (1, 1, 1, 1): 1})
    assert hat_bullet(1, one() + M1, M1 + M11) == QSymElem("M", {
        (1, 1): 1, (2, 1): 1, (1, 1, 1): 2, (2, 1, 1): 1, (1, 1, 1, 1): 1})


def mul_by_pair_loop(a, b):
    """a * b as a pair loop over the M terms, each kernel table decoded entry by entry."""
    (na, da), (nb, db) = to_basis(a, "M").form, to_basis(b, "M").form
    acc = defaultdict(int)
    for A, x in na.items():
        for B, y in nb.items():
            for n, w in quasi_shuffle(tuple(A), tuple(B)).items():
                acc[NUMBERED[n]] += x * y * w
    return reduced(acc, da * db)


def dense(a, b) -> bool:
    """The rule of `mul`'s docstring: a list of 2^top slots, top = max deg a + max
    deg b, when top < LIGHT and there are at most 4 slots per table entry."""
    na, nb = to_basis(a, "M").nums, to_basis(b, "M").nums
    top = max(map(sum, na), default=0) + max(map(sum, nb), default=0)
    entries = sum(len(quasi_shuffle(tuple(A), tuple(B))) for A in na for B in nb)
    return top < LIGHT and 2 ** top <= 4 * entries


def mul_and_its_accumulator(a, b):
    """mul(a, b), and whether it summed in a list (no dict was made)."""
    made = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(products, "defaultdict", lambda kind: made.append(kind) or defaultdict(kind))
        out = mul(a, b)
    return out, not made


EMPTY, HEAVY = QSymElem("M", {}), monomial("M", (LIGHT,))
small_words = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda w: sum(w) <= 6).map(tuple)
forms = st.builds(QSymElem, st.sampled_from(("M", "Mt", "F")),
                  st.dictionaries(small_words, fractions, min_size=1, max_size=4))
mul_operands = st.one_of(  # one draw in four is fixed: empty, the unit, or a heavy word
    st.sampled_from((EMPTY, one(), HEAVY, QSymElem("M", {(15, 16): 2, (1,): Fraction(1, 3)}))),
    forms, forms, forms)


@SETTINGS
@given(mul_operands, mul_operands)
def test_mul_is_the_pair_loop_in_a_list_or_a_dict_as_its_rule_says(a, b):
    out, listed = mul_and_its_accumulator(a, b)
    assert listed == dense(a, b)
    assert out.form == mul_by_pair_loop(a, b) and out.basis == "M"
    assert all(type(w) is tuple for w in out.nums)


@pytest.mark.parametrize("a, b, listed", [
    (one(), one(), True),  # one slot, one entry
    (one(), monomial("M", (2,)), True),  # 4 slots, 1 entry
    (monomial("M", (1,)), monomial("M", (1,)), True),  # 4 slots, 2 entries
    (QSymElem("F", {(3,): 1}), QSymElem("F", {(2, 1): 1}), True),  # 32 slots, 27 entries
    (monomial("M", (5,)), monomial("M", (5,)), False),  # 1024 slots, 3 entries
    (EMPTY, monomial("M", (2,)), False),  # no entry
    (monomial("M", (20,)), monomial("M", (20,)), False),  # top 40: 2^40 slots
    (HEAVY + monomial("M", (1,)), monomial("M", (1, 1)), False),  # a heavy word among light ones
], ids=["1*1", "1*M2", "M1*M1", "F3*F21", "M5*M5", "0*M2", "M20*M20", "heavy+light"])
def test_mul_sums_dense_answers_in_a_list_and_sparse_ones_in_a_dict(a, b, listed):
    out, got = mul_and_its_accumulator(a, b)
    assert got == listed == dense(a, b)
    assert out.form == mul_by_pair_loop(a, b)
