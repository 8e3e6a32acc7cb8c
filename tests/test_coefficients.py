"""Stored coefficients: an int when integral, a Fraction otherwise, never a float;
parts, indices, counts and exponents are ints, never bools or floats."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasisym.composition import (
    Composition, compositions_of, elementary_compose, enumerate_compositions,
)
from quasisym.elements import (
    QSymElem, coefficient, format_ratios, monomial, scale, to_basis,
)
from quasisym.hopf import (
    TensorElem, antipode, coproduct, counit_left, m_k, tensor_bullet_left, tensor_bullet_right,
    tensor_mul, tensor_of,
)
from quasisym.kp import (
    complete_h, elementary_schur, h_in_p, h_product, kp_identity, kp_sigma, p_leaf,
)
from quasisym.oracle import Polynomial, expand, expand_bullet
from quasisym.products import bullet, bullet_via_first, elementary_F, hat_bullet, mul, reverse_map
from quasisym.qss import (
    QssPoly, pbup_transcription, qss_bullet, qss_one, qss_p, t_substitution_check,
)


def test_coefficient_normal_form():
    assert coefficient(Fraction(4, 2)) == 2 and type(coefficient(Fraction(4, 2))) is int
    assert coefficient(Fraction(3, 6)) == Fraction(1, 2)
    assert type(coefficient(True)) is int
    for bad in (0.5, 1.0, "1/2", None, complex(1, 0)):
        with pytest.raises(TypeError):
            coefficient(bad)


def reference_format(pairs) -> str:
    """The text of (coefficient, atom) pairs as it was printed while every
    coefficient went through str(Fraction)."""
    pieces = []
    for coeff, atom in pairs:
        mag = abs(Fraction(coeff))
        body = str(mag) if atom == "1" else atom if mag == 1 else f"{mag}*{atom}"
        if pieces:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        else:
            pieces.append(body if coeff > 0 else f"-{body}")
    return " ".join(pieces) or "0"


ATOMS = st.sampled_from(["1", "M[2,1]", "x1*x2^3", "1 (x) M[1]", "phi_{t1}*phi_{t2}"])
NUMERATORS = st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30))
DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 10**30))
# (numerator, denominator) pairs, unreduced; one strategy in two has magnitude 1
RATIOS = st.one_of(st.tuples(NUMERATORS, DENOMINATORS),
                   st.builds(lambda d, sign: (sign * d, d), DENOMINATORS, st.sampled_from((1, -1))))
PRINTING = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@PRINTING
@given(st.lists(st.tuples(RATIOS, ATOMS), max_size=4))
def test_ratios_print_as_their_fractions(terms):
    triples = [(num, den, atom) for (num, den), atom in terms]
    assert format_ratios(triples) == reference_format(
        [(Fraction(num, den), atom) for num, den, atom in triples])


@pytest.mark.parametrize("build", [
    lambda: QSymElem("M", {(1,): 0.5}),
    lambda: TensorElem({((1,), ()): 0.1}),
    lambda: Polynomial(1, {(1,): 0.5}),
    lambda: QssPoly(1, {((1,), (0,)): 0.5}),
    lambda: Polynomial(1, {(1,): "1/2"}),
    lambda: 0.5 * monomial("M", (1,)),
    lambda: p_leaf(0.25, (1,)),
    lambda: p_leaf("3/2", (1,)),
], ids=["QSymElem", "TensorElem", "Polynomial", "QssPoly", "string", "scalar", "p_leaf",
        "p_leaf-string"])
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
    assert type(QssPoly(1, {((1,), (0,)): Fraction(2, 1)}).terms[(1, 0)]) is int
    halves = coproduct(QSymElem("M", {(1,): half}))
    assert set(halves.terms.values()) == {half}


def test_terms_are_a_read_only_view():
    """A write through .terms is refused, for every class of element."""
    with pytest.raises(TypeError):
        complete_h(2).terms[Composition((2,))] = 5
    assert repr(complete_h(2)) == "M[2] + M[1,1]"
    for e in (QSymElem("M", {(1,): Fraction(1, 2)}), coproduct(complete_h(2)),
              expand(complete_h(2), 2), qss_p(1, 2)):
        key = next(iter(e.terms))
        with pytest.raises(TypeError):
            e.terms[key] = 7
        with pytest.raises(TypeError):
            del e.terms[key]


def test_fractional_terms_are_worked_out_on_read():
    """Over den > 1, .terms keeps no coefficient: each read gives the reduced
    value, and two views compare as the maps they show."""
    e = QSymElem("M", {(1,): Fraction(1, 2), (2,): 3, (1, 1): Fraction(-4, 6)})
    assert e.den == 6
    assert dict(e.terms) == {(1,): Fraction(1, 2), (2,): 3, (1, 1): Fraction(-2, 3)}
    assert type(e.terms[(2,)]) is int and e.terms.get((3,)) is None
    assert (1, 1) in e.terms and len(e.terms) == 3 and list(e.terms) == list(e.nums)
    assert e.terms == dict(e.terms) == e.terms and dict(e.terms) == e.terms
    assert e.terms != QSymElem("M", {(1,): Fraction(1, 2)}).terms
    assert (e + e).terms != e.terms and (e + e).terms == {k: 2 * v for k, v in e.terms.items()}
    assert repr(e.terms) == "{[1]: Fraction(1, 2), [2]: 3, [1,1]: Fraction(-2, 3)}"
    with pytest.raises(TypeError):
        hash(e.terms)


def test_items_and_values_look_no_key_up(monkeypatch):
    """.terms.items() and .values() read the stored numerators in key order;
    only a lookup by a shown key unwraps it."""
    p = expand(monomial("F", (2, 1)), 3) + Polynomial(3, {(0, 0, 1): Fraction(1, 2)})
    calls = []
    unwrap = Polynomial._unwrap
    monkeypatch.setattr(Polynomial, "_unwrap",
                        lambda self, mono: calls.append(mono) or unwrap(self, mono))
    items, values = dict(p.terms.items()), list(p.terms.values())
    assert calls == []
    assert list(items) == list(p.terms) and values == list(items.values())
    assert items[(0, 0, 1)] == Fraction(1, 2) and items[(2, 1, 0)] == 1 and len(items) == 5
    assert len(p.terms.items()) == 5 and ((0, 0, 1), Fraction(1, 2)) in p.terms.items()
    assert p.terms.items() & {((2, 1, 0), 1), ((2, 1, 0), 2)} == {((2, 1, 0), 1)}
    assert calls  # membership looks its key up
    e = QSymElem("M", {(1,): Fraction(1, 2), (2,): 3})
    assert list(e.terms.items()) == [((1,), Fraction(1, 2)), ((2,), 3)]
    assert all(type(key) is Composition for key, _ in e.terms.items())


def test_equality_is_on_the_canonical_form():
    assert QSymElem("M", {(1,): Fraction(2, 4)}) == QSymElem("M", {(1,): Fraction(1, 2)})
    e = QSymElem("M", {(1,): Fraction(2, 4), (2,): Fraction(1, 3)})
    assert (e.nums, e.den) == ({(1,): 3, (2,): 2}, 6)
    assert (e - e).form == ({}, 1)
    assert (6 * e).form == ({(1,): 3, (2,): 2}, 1)


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
    ("h_product-m", lambda v: h_product(v, 1), 0),
    ("h_product-n", lambda v: h_product(1, v), 0),
    ("elementary_schur", elementary_schur, 0),
    ("kp_identity-m", lambda v: kp_identity(v, 1), 1),
    ("kp_identity-n", lambda v: kp_identity(1, v), 1),
    ("h_in_p", h_in_p, 1),
    ("kp_sigma-m", lambda v: kp_sigma(v, 1), 1),
    ("kp_sigma-n", lambda v: kp_sigma(1, v), 1),
    ("p_leaf", lambda v: p_leaf(1, (v,)), 1),
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
    ("pbup_transcription-r", lambda v: pbup_transcription(v, 1, 2), 1),
    ("pbup_transcription-s", lambda v: pbup_transcription(1, v, 2), 1),
    ("pbup_transcription-n", lambda v: pbup_transcription(1, 1, v), 1),
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


def test_multiplicities_survive_every_bilinear_caller():
    """A word reached twice keeps multiplicity 2, whichever path builds it."""
    m1, m11 = monomial("M", (1,)), monomial("M", (1, 1))
    assert mul(m1, m1).terms == {(1, 1): 2, (2,): 1}
    assert h_product(1, 1).terms == {(1, 1): 2, (2,): 1}
    assert bullet(1, m1 + m11, m1 + m11).terms[(1, 1, 1, 1)] == 2
    d = coproduct(m1)  # 1 (x) M[1] + M[1] (x) 1
    assert tensor_mul(d, d) == TensorElem({
        ((), (1, 1)): 2, ((), (2,)): 1, ((1,), (1,)): 2, ((1, 1), ()): 2, ((2,), ()): 1})
    # 1 o_1 M[1] = M[1,1] + M[2] and M[1] o_1 1 = M[1,1]
    assert m_k(1, d).terms == {(1, 1): 2, (2,): 1}
    # F[2] = M[2] + M[1,1] and F[1,1] = M[1,1]; Mt[1,1] = M[1,1] + M[2] and Mt[2] = M[2]
    assert to_basis(QSymElem("F", {(2,): 1, (1, 1): 1}), "M").terms == {(2,): 1, (1, 1): 2}
    assert to_basis(QSymElem("Mt", {(2,): 1, (1, 1): 1}), "M").terms == {(2,): 2, (1, 1): 1}
