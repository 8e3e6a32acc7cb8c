from fractions import Fraction

import pytest

from quasisym.composition import Composition, compositions_of
from quasisym.elements import QSymElem, monomial, one, to_basis
from quasisym.hopf import TensorElem, coproduct, derivation_delta, tensor_of
from quasisym.kp import (
    PLeaf,
    PTimes,
    SBullet,
    SScale,
    SSum,
    _h_words,
    complete_h,
    elementary_schur,
    h_product,
    kp_classical_identity,
    kp_classical_sigma_expression,
    kp_identity,
    kp_sigma_expression,
    partitions_of,
    power_sum,
    schur_substitution,
    sigma_render,
    sigma_terms,
)
from quasisym.oracle import expand, poly_mul
from quasisym.products import bullet, mul
from quasisym.suites import certify_kp


def M(*p):
    return monomial("M", p)


KP_EQUATION = (
    "4*phi_{t1,t3} - 3*phi_{t2,t2} - phi_{t1,t1,t1,t1}"
    " + 6*phi_{t1}*phi_{t2} - 6*phi_{t1}*phi_{t1,t1}"
    " - 6*phi_{t2}*phi_{t1} - 6*phi_{t1,t1}*phi_{t1}"
)


def test_power_sum():
    assert power_sum(1) == M(1)
    assert power_sum(3) == M(3)
    assert coproduct(power_sum(4)) == tensor_of(one(), M(4)) + tensor_of(M(4), one())
    with pytest.raises(ValueError):
        power_sum(0)


def test_complete_h():
    assert complete_h(0) == one()
    assert complete_h(1) == M(1)
    assert complete_h(2) == M(1, 1) + M(2)
    # newton recursion introduces denominators that must cancel exactly
    seen = mul(power_sum(1), power_sum(1)) + power_sum(2)
    assert complete_h(2) == Fraction(1, 2) * seen
    for n in range(0, 9):
        flat = QSymElem("M", {c: Fraction(1) for c in compositions_of(n)})
        assert complete_h(n) == flat
        assert complete_h(n) == to_basis(monomial("Mt", (1,) * n), "M")


def test_newton_suite_checks_the_recursion(monkeypatch):
    from quasisym import suites

    assert all(suites.decide(case) for case in suites.suite_newton(max_n=5))
    # complete_h is the flat sum by construction; the suite's "sum of M_C"
    # case compares it with Newton's recursion, so a wrong h_n must fail it
    wrong = lambda n: complete_h(n) + (M(n) if n else 0 * M(1))
    monkeypatch.setattr(suites, "complete_h", wrong)
    results = {case[0]: suites.decide(case) for case in suites.suite_newton(max_n=3)}
    assert not results["h_3 = sum of M_C"] and results["h_0 = sum of M_C"]
    assert str(results["h_3 = sum of M_C"]) == "-M[3] (1 term)"


def test_divided_power_coproduct():
    for n in range(1, 6):
        lhs = coproduct(complete_h(n))
        rhs = TensorElem()
        for k in range(n + 1):
            rhs = rhs + tensor_of(complete_h(k), complete_h(n - k))
        assert lhs == rhs


def test_elementary_schur():
    assert elementary_schur(0) == {Composition(): Fraction(1)}
    assert elementary_schur(2) == {
        Composition((2,)): Fraction(1),
        Composition((1, 1)): Fraction(1, 2),
    }
    for n in range(0, 7):
        assert schur_substitution(n) == complete_h(n)


def test_partitions_of():
    assert partitions_of(4) == [
        Composition((1, 1, 1, 1)),
        Composition((2, 1, 1)),
        Composition((2, 2)),
        Composition((3, 1)),
        Composition((4,)),
    ]


def test_kp_identity_small():
    lhs, rhs = kp_identity(1, 1)
    assert lhs == rhs == QSymElem("M", {})
    # the worked (1,2) member in its h-form
    h = complete_h
    lhs, rhs = kp_identity(1, 2)
    assert lhs == mul(h(1), h(3)) - mul(h(2), h(2))
    assert rhs == bullet(1, h(1), h(2)) - bullet(1, h(1), mul(h(1), h(1))) - bullet(
        1, h(2), h(1)
    )
    assert lhs == rhs
    with pytest.raises(ValueError):
        kp_identity(0, 1)


def test_kp_identity_family_and_antisymmetry():
    results = {}
    for m in range(1, 7):
        for n in range(1, 7):
            lhs, rhs = kp_identity(m, n)
            assert lhs == rhs, (m, n)
            results[(m, n)] = (lhs, rhs)
    for m in range(1, 7):
        for n in range(1, 7):
            assert results[(m, n)][0] == -results[(n, m)][0]
            assert results[(m, n)][1] == -results[(n, m)][1]


def test_h_product_equals_mul():
    for m in range(7):
        for n in range(7):
            got = h_product(m, n)
            assert got.basis == "M"
            assert got.terms == mul(complete_h(m), complete_h(n)).terms, (m, n)
            assert all(type(c) is Composition for c in got.terms)


def test_h_product_against_the_oracle():
    m, n = 3, 4
    nvars = m + n
    assert expand(h_product(m, n), nvars) == poly_mul(
        expand(complete_h(m), nvars), expand(complete_h(n), nvars))


def test_h_words_are_a_tuple():
    # the cached entry is shared, so neither it nor its pairs may be mutable
    words = _h_words(2, 3)
    assert type(words) is tuple
    assert all(type(pair) is tuple and type(pair[0]) is tuple for pair in words)
    assert dict(words) == dict(_h_words(3, 2))


def test_kp_oracle_certification():
    for m in range(1, 3):
        for n in range(1, 3):
            assert certify_kp(m, n, m + n + 2)


def test_kp_certification_needs_the_degree_in_variables():
    # m + n + 1 variables decide equality in QSym; fewer would certify nothing
    assert certify_kp(1, 2, 4)
    for nvars in (3, 1, 0, True):
        with pytest.raises(ValueError):
            certify_kp(1, 2, nvars)
    with pytest.raises(ValueError):
        certify_kp(0, 2, 4)


def test_proof_step():
    h = complete_h
    for m in range(1, 5):
        for n in range(1, 5):
            acc = QSymElem("M", {})
            for k in range(0, m + 1):
                acc = acc + bullet(1, h(k), mul(h(m - k), h(n)))
            assert mul(h(m), h(n + 1)) == acc


def test_kp_classical():
    lhs, rhs = kp_classical_identity()
    assert lhs == rhs
    p1 = power_sum(1)
    assert bullet(1, mul(p1, p1), p1) + bullet(1, p1, mul(p1, p1)) == mul(
        p1, bullet(1, p1, p1)
    )


def test_derivation_form_of_kp():
    d = derivation_delta
    lhs = 4 * d(1, d(3, one())) - 3 * d(2, d(2, one())) - d(1, d(1, d(1, d(1, one()))))
    rhs = -6 * d(1, bullet(1, d(1, one()), d(1, one()))) + 6 * (
        bullet(1, d(1, one()), d(2, one())) - bullet(1, d(2, one()), d(1, one()))
    )
    assert lhs == rhs


def test_sigma_leaves():
    assert sigma_render(PLeaf(Fraction(1), (3,))) == "-phi_{t3}"
    assert (
        sigma_render(SBullet(PLeaf(Fraction(1), (1,)), PLeaf(Fraction(1), (2,))))
        == "phi_{t1}*phi_{t2}"
    )
    with pytest.raises(ValueError):
        PLeaf(Fraction(1), ())
    with pytest.raises(ValueError):
        PLeaf(Fraction(1), (1, 2))


def test_sigma_derivative_rule():
    # p_1 (p_1 o p_1) renders with the product rule, order preserved
    expr = PTimes(1, SBullet(PLeaf(Fraction(1), (1,)), PLeaf(Fraction(1), (1,))))
    terms = sigma_terms(expr)
    assert [(t.coeff, t.factors) for t in terms] == [
        (Fraction(1), ((1,), (1, 1))),
        (Fraction(1), ((1, 1), (1,))),
    ]


def test_sigma_collects_like_terms():
    expr = SSum((PLeaf(Fraction(2), (2, 1)), SScale(Fraction(-1), PLeaf(Fraction(2), (2, 1)))))
    assert sigma_terms(expr) == []


def test_classical_rendering_matches_kp_equation():
    raw = sigma_render(kp_classical_sigma_expression())
    assert raw.startswith("-4*phi_{t1,t3} + 3*phi_{t2,t2} + phi_{t1,t1,t1,t1}")
    assert sigma_render(kp_classical_sigma_expression(), normalize=True) == KP_EQUATION


def test_h_form_rendering_matches_kp_equation():
    # the (1,2) member, rendered from its h-form tree and cleared of
    # denominators, reproduces the same equation text
    assert sigma_render(kp_sigma_expression(1, 2), normalize=True) == KP_EQUATION


def test_sigma_rejects_junk():
    with pytest.raises(TypeError):
        sigma_terms("p1")
    with pytest.raises(ValueError):
        sigma_terms(PTimes(0, PLeaf(Fraction(1), (1,))))
