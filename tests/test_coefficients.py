"""Stored coefficients: an int when integral, a Fraction otherwise, never a float;
parts, indices, counts and exponents are ints, never bools or floats."""

import re
from fractions import Fraction

import pytest

from quasisym.composition import (
    Composition, compositions_of, elementary_compose, enumerate_compositions,
)
from quasisym.elements import QSymElem, coefficient, monomial, scale, to_basis
from quasisym.hopf import (
    TensorElem, antipode, coproduct, counit_left, m_k, tensor_bullet_left, tensor_bullet_right,
    tensor_mul, tensor_of,
)
from quasisym.kp import (
    PLeaf, complete_h, elementary_schur, h_leaf_sum, kp_identity, kp_sigma_expression,
)
from quasisym.oracle import Polynomial, expand, expand_bullet
from quasisym.products import bullet, bullet_via_first, elementary_F, hat_bullet, mul, reverse_map
from quasisym.qss import QssPoly, qss_bullet, qss_one, qss_p, t_substitution_check


def test_coefficient_normal_form():
    assert coefficient(Fraction(4, 2)) == 2 and type(coefficient(Fraction(4, 2))) is int
    assert coefficient(Fraction(3, 6)) == Fraction(1, 2)
    assert type(coefficient(True)) is int
    for bad in (0.5, 1.0, "1/2", None, complex(1, 0)):
        with pytest.raises(TypeError):
            coefficient(bad)


@pytest.mark.parametrize("build", [
    lambda: QSymElem("M", {(1,): 0.5}),
    lambda: TensorElem({((1,), ()): 0.1}),
    lambda: Polynomial(1, {(1,): 0.5}),
    lambda: QssPoly(1, {((1,), (0,)): 0.5}),
    lambda: Polynomial(1, {(1,): "1/2"}),
    lambda: 0.5 * monomial("M", (1,)),
], ids=["QSymElem", "TensorElem", "Polynomial", "QssPoly", "string", "scalar"])
def test_floats_are_refused_everywhere(build):
    with pytest.raises(TypeError):
        build()


def test_integral_coefficients_are_stored_as_int():
    half = Fraction(1, 2)
    elems = [
        QSymElem("M", {(1,): Fraction(4, 2)}),
        scale(half, 2 * monomial("M", (2, 1))),
        mul(half * monomial("M", (1,)), 2 * monomial("M", (1,))),
        to_basis(QSymElem("F", {(2, 1): Fraction(6, 3)}), "M"),
    ]
    for e in elems:
        assert e.terms and all(type(v) is int for v in e.terms.values())
    assert type(TensorElem({((1,), ()): Fraction(2, 1)}).terms[((1,), ())]) is int
    assert type(Polynomial(1, {(1,): Fraction(2, 1)}).terms[(1,)]) is int
    assert type(QssPoly(1, {((1,), (0,)): Fraction(2, 1)}).terms[((1,), (0,))]) is int
    halves = coproduct(QSymElem("M", {(1,): half}))
    assert set(halves.terms.values()) == {half}


def test_complete_h_is_the_flat_sum_with_int_coefficients():
    h = complete_h(7)
    assert len(h.terms) == 2 ** 6
    assert all(type(v) is int and v == 1 for v in h.terms.values())


@pytest.mark.parametrize("parts", [(True, 2), (1, False), (True,)])
def test_bool_parts_are_refused(parts):
    with pytest.raises(ValueError):
        Composition(parts)
    with pytest.raises(ValueError):
        QSymElem("M", {parts: 1})
    with pytest.raises(ValueError):
        monomial("F", parts)
    with pytest.raises(ValueError):
        TensorElem({(parts, ()): 1})


@pytest.mark.parametrize("k", [True, 1.0, 0])
def test_product_index_is_checked_like_a_part(k):
    # k becomes a part of the result words, which are not validated again
    for product in (bullet, hat_bullet):
        with pytest.raises(ValueError):
            product(k, monomial("M", (1,)), monomial("M", (2,)))


M1 = monomial("M", (1,))

# (id, call taking the integer, least allowed value)
INTEGER_SITES = [
    ("Composition", lambda v: Composition((1, v)), 1),
    ("compositions_of", compositions_of, 0),
    ("enumerate_compositions", enumerate_compositions, 0),
    ("elementary_compose-m", lambda v: elementary_compose([(v, 0)]), 0),
    ("elementary_compose-n", lambda v: elementary_compose([(0, v)]), 0),
    ("complete_h", complete_h, 0),
    ("elementary_schur", elementary_schur, 0),
    ("kp_identity-m", lambda v: kp_identity(v, 1), 1),
    ("kp_identity-n", lambda v: kp_identity(1, v), 1),
    ("h_leaf_sum", h_leaf_sum, 1),
    ("kp_sigma_expression-m", lambda v: kp_sigma_expression(v, 1), 1),
    ("kp_sigma_expression-n", lambda v: kp_sigma_expression(1, v), 1),
    ("PLeaf", lambda v: PLeaf(Fraction(1), (v,)), 1),
    ("Polynomial-n", Polynomial, 0),
    ("Polynomial-exponent", lambda v: Polynomial(2, {(1, v): 1}), 0),
    ("expand-n", lambda v: expand(M1, v), 1),
    ("expand_bullet-n", lambda v: expand_bullet(1, M1, M1, v), 1),
    ("elementary_F-m", lambda v: elementary_F(v, 0), 0),
    ("elementary_F-n", lambda v: elementary_F(0, v), 0),
    ("QssPoly-n", QssPoly, 1),
    ("QssPoly-exponent", lambda v: QssPoly(1, {((0,), (v,)): 1}), 0),
    ("t_substitution_check", lambda v: t_substitution_check(qss_one(2), v), 0),
    ("qss_p-n", lambda v: qss_p(1, v), 1),
    ("qss_one", qss_one, 1),
]


@pytest.mark.parametrize("call, least, bad", [
    pytest.param(lambda k: expand_bullet(k, M1, M1, 2), 1, 1.5, id="expand_bullet"),
    pytest.param(lambda k: qss_bullet(k, qss_one(2), qss_one(2)), 1, 1.5, id="qss_bullet"),
    pytest.param(lambda r: qss_p(r, 2), 1, True, id="qss_p"),
    pytest.param(lambda k: bullet_via_first(k, M1, M1), 1, 2.0, id="bullet_via_first"),
    pytest.param(lambda _: Polynomial(0, {(): 1}).set_last_to_zero(), 0, -1,
                 id="set_last_to_zero"),
] + [
    pytest.param(call, least, bad, id=f"{name}-{kind}")
    for name, call, least in INTEGER_SITES
    for kind, bad in (("bool", True), ("float", float(least + 1)), ("below", least - 1))
])
def test_every_index_is_checked_like_a_part(call, least, bad):
    # the integer becomes a part, an exponent or a count of keys built without checks
    with pytest.raises(ValueError, match=re.escape(f"must be an integer >= {least}, got {bad!r}")):
        call(bad)


def test_kernel_results_are_compositions():
    a = QSymElem("M", {(1, 2): 3, (2,): Fraction(-1, 3)})
    b = to_basis(QSymElem("F", {(1, 1): 2}), "Mt")
    for e in (mul(a, b), bullet(2, a, b), to_basis(a, "F"), a + b, -a):
        assert all(type(c) is Composition for c in e.terms)
    for left, right in coproduct(a).terms:
        assert type(left) is Composition and type(right) is Composition
    assert expand(mul(a, b), 2) == expand(a, 2) * expand(b, 2)


def test_results_built_from_kernel_words_are_keyed_by_compositions():
    a = QSymElem("F", {(1, 2): 3, (2,): Fraction(-1, 3)})
    b = QSymElem("Mt", {(1,): 2, (): 1})
    t = coproduct(a)
    tensors = [t, tensor_of(a, b), tensor_bullet_right(t, 2, b), tensor_bullet_left(b, 1, t),
               tensor_mul(t, coproduct(b)), 2 * t - t]
    for e in tensors:
        assert all(type(c) is Composition for pair in e.terms for c in pair)
    elems = [hat_bullet(1, a, b), antipode(a), reverse_map(a), m_k(2, t), counit_left(t),
             scale(2, a), complete_h(3) - a]
    for e in elems:
        assert all(type(c) is Composition for c in e.terms)
