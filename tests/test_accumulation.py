"""The two accumulation loops of the sparse core: `convolve` for keys that
add, and `bilinear` for an image given on keys, a tuple or any mapping; and
the graded products, one dict comprehension where no two term pairs give one
word and `convolve` where they do.

The references are the loops they replaced, kept here as written before:
the pair loop that the graded products and `Polynomial._product` each
spelled out, and `m_k` as a full `bullet` per tensor term through
`_collapse`.  Seeds are derandomized, so runs are repeatable.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings, strategies as st

from quasisym._core import pack
from quasisym.composition import Composition
from quasisym.elements import QSymElem, bilinear, convolve, linear, monomial, one, reduced
from quasisym.hopf import TensorElem, _collapse, coproduct, m_k
from quasisym.products import _bullet_words, _hat_words, bullet, hat_bullet

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
