from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from quasisym._core import LIMIT
from quasisym.composition import enumerate_compositions
from quasisym.elements import monomial, one, scale, to_basis
from quasisym.oracle import (
    Polynomial,
    certify_equal,
    expand,
    expand_bullet,
    poly_equal,
    poly_mul,
)
from quasisym.products import bullet, hat_bullet, mul
from quasisym.qss import QssPoly, qss_bullet, qss_one, qss_p


def M(*p):
    return monomial("M", p)


def P(n, terms):
    return Polynomial(n, {k: Fraction(v) for k, v in terms.items()})


def test_expand_basis_examples():
    assert expand(M(2), 2) == P(2, {(2, 0): 1, (0, 2): 1})
    assert expand(M(1, 1), 3) == P(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert expand(monomial("F", (2,)), 2) == P(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert expand(monomial("Mt", (1, 1)), 2) == P(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert expand(one(), 3) == P(3, {(0, 0, 0): 1})
    assert expand(M(1, 1, 1, 1), 3) == Polynomial(3)


def test_m_expansion_divides_out_the_gcd_left_by_long_compositions():
    # M[1,1,1] has no monomial in 2 variables; the 1/3 left over is not x/15
    a = M(1, 1, 1) * Fraction(1, 15) + M(2) * Fraction(1, 3)
    p = expand(a, 2)
    assert p == Polynomial(2, {(2, 0): Fraction(1, 3), (0, 2): Fraction(1, 3)})
    assert p.den == 3 and p.terms == {(2, 0): Fraction(1, 3), (0, 2): Fraction(1, 3)}


def test_expand_matches_base_change():
    # basis-native expansion agrees with expanding the M-basis conversion
    for c in enumerate_compositions(5):
        for basis in ("Mt", "F"):
            e = monomial(basis, c)
            assert expand(e, 5) == expand(to_basis(e, "M"), 5)


def test_f31_adjudication():
    # the honest chain expansion of F[3,1] contains the monomial x1*x2^2*x3,
    # so the M-expansion must include M[1,2,1]: the general refinement
    # formula wins over the three-term variant
    direct = expand(monomial("F", (3, 1)), 4)
    assert direct.terms[(1, 2, 1, 0)] == 1
    general = expand(to_basis(monomial("F", (3, 1)), "M"), 4)
    three_term = expand(M(3, 1) + M(2, 1, 1) + M(1, 1, 1, 1), 4)
    assert direct == general
    assert direct != three_term


def test_poly_ops():
    p = expand(M(1), 3)
    assert poly_equal(p - p, Polynomial(3))
    q = poly_mul(p, p)
    assert q == expand(mul(M(1), M(1)), 3)
    with pytest.raises(ValueError):
        poly_equal(p, Polynomial(2))
    with pytest.raises(ValueError):
        poly_mul(p, Polynomial(2))
    assert (Polynomial(2) == Polynomial(3)) is False
    with pytest.raises(ValueError, match="bad exponent vector"):
        Polynomial(2, {(1,): 1})
    assert 2 * p == p + p


def test_products_at_the_edge_of_one_byte_per_exponent():
    half = Fraction(1, 2)
    # largest exponent 255: packed one byte per exponent; the cross terms cancel
    p = Polynomial(2, {(127, 0): half, (0, 1): half})
    q = Polynomial(2, {(128, 0): 1, (1, 1): -1})
    assert p * q == Polynomial(2, {(255, 0): half, (1, 2): -half})
    # largest exponent 256: packed as digits of a wider base
    p = Polynomial(2, {(128, 0): half, (0, 1): half})
    q = Polynomial(2, {(128, 0): 1, (0, 1): -1})
    assert p * q == Polynomial(2, {(256, 0): half, (0, 2): -half})
    assert (p * q).den == 2 and (p * q).terms == {(256, 0): half, (0, 2): -half}
    r = Polynomial(3, {(0, 255, 1): 2, (1, 0, 0): 3})
    assert r * Polynomial(3, {(0, 1, 0): 1}) == Polynomial(3, {(0, 256, 1): 2, (1, 1, 0): 3})
    assert r * Polynomial(3, {(0, 0, 0): 1}) == r


def test_products_without_variables_and_on_two_alphabets():
    assert Polynomial(0, {(): 3}) * Polynomial(0, {(): Fraction(1, 2)}) == \
        Polynomial(0, {(): Fraction(3, 2)})
    assert Polynomial(0) * Polynomial(0, {(): 5}) == Polynomial(0)
    d = QssPoly(1, {((1,), (0,)): 1, ((0,), (1,)): -1})  # x1 - y1
    assert d * d == QssPoly(1, {((2,), (0,)): 1, ((1,), (1,)): -2, ((0,), (2,)): 1})
    assert d * QssPoly(1, {((255,), (0,)): 1}) == QssPoly(1, {((256,), (0,)): 1, ((255,), (1,)): -1})


def test_expand_is_algebra_map():
    for n in (3, 5):
        for a in enumerate_compositions(3):
            for b in enumerate_compositions(3):
                ea, eb = M(*a), M(*b)
                assert expand(mul(ea, eb), n) == poly_mul(expand(ea, n), expand(eb, n))


def test_expand_bullet_examples():
    assert expand_bullet(1, one(), one(), 3) == P(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert expand_bullet(1, M(1), M(1), 3) == P(
        3, {(1, 2, 0): 1, (1, 1, 1): 1, (1, 0, 2): 1, (0, 1, 2): 1}
    )
    assert expand_bullet(1, M(2), one(), 2) == P(2, {(2, 1): 1})
    with pytest.raises(ValueError):
        expand_bullet(0, one(), one(), 3)


def test_expand_bullet_matches_structure_constants():
    for a in enumerate_compositions(3):
        for b in enumerate_compositions(3):
            ea, eb = M(*a), M(*b)
            for k in (1, 2):
                for n in (6, 9):
                    assert expand_bullet(k, ea, eb, n) == expand(bullet(k, ea, eb), n)
                    assert expand_bullet(k, ea, eb, n, hat=True) == expand(
                        hat_bullet(k, ea, eb), n
                    )


def test_monotone_consistency():
    for c in enumerate_compositions(4):
        for basis in ("M", "Mt", "F"):
            e = monomial(basis, c)
            for n in (5, 4, 3, 2):
                assert expand(e, n).set_last_to_zero() == expand(e, n - 1)


def test_certify_equal():
    a = M(2, 1)
    assert certify_equal(a, a)
    assert certify_equal(mul(M(1), M(1)), 2 * M(1, 1) + M(2))
    assert not certify_equal(M(1, 2), M(2, 1))
    assert certify_equal(scale(0, M(3)), M(1) - M(1))


def test_polynomial_printing():
    p = expand(M(2, 1), 3) + expand(M(1, 1, 1), 3)
    assert repr(p) == "x1^2*x2 + x1^2*x3 + x1*x2*x3 + x2^2*x3"
    assert repr(Polynomial(2)) == "0"
    assert repr(P(2, {(0, 0): Fraction(-3, 2), (1, 0): 1})) == "-3/2 + x1"


# -- the width of a packed monomial -----------------------------------------

def test_an_exponent_of_limit_is_refused():
    for terms in ({(LIMIT,): 1}, {(2 * LIMIT,): 1}, {(LIMIT * LIMIT,): 1}):
        with pytest.raises(ValueError, match="exponent"):
            Polynomial(1, terms)
    with pytest.raises(ValueError, match="exponent"):
        QssPoly(1, {((0,), (LIMIT,)): 1})
    assert Polynomial(2, {(LIMIT - 1, 1): 1}).terms == {(LIMIT - 1, 1): 1}


def test_a_product_that_reaches_limit_is_refused():
    half = Polynomial(2, {(LIMIT // 2, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match="reached"):
        half * half  # x1^LIMIT, which would carry into x2's field
    below = Polynomial(2, {(LIMIT // 2 - 1, 0): 1, (0, 1): -1})
    assert half * below == Polynomial(
        2, {(LIMIT - 1, 0): 1, (LIMIT // 2 - 1, 1): 1, (LIMIT // 2, 1): -1, (0, 2): -1})
    with pytest.raises(ValueError, match="reached"):
        qss_bullet(LIMIT - 1, qss_p(1, 1), qss_one(1))  # (x1 - y1) o_k 1 holds y1^(k+1)
    assert str(qss_bullet(LIMIT - 2, qss_p(1, 1), qss_one(1))) == (
        f"-x1*y1^{LIMIT - 2} + y1^{LIMIT - 1}")


def test_an_index_that_becomes_an_exponent_of_limit_is_refused():
    with pytest.raises(ValueError, match="generator index"):
        qss_p(LIMIT, 1)
    with pytest.raises(ValueError, match="product index"):
        qss_bullet(LIMIT, qss_one(1), qss_one(1))
    assert qss_p(LIMIT - 1, 1).terms == {(LIMIT - 1, 0): 1, (0, LIMIT - 1): -1}


def reference_product(p, q) -> dict:
    """p * q on exponent tuples, summed term pair by term pair."""
    acc = {}
    for u, x in p.terms.items():
        for v, y in q.terms.items():
            w = tuple(map(add, u, v))
            acc[w] = acc.get(w, 0) + x * y
    return {w: c for w, c in acc.items() if c}


# at and around the old byte and digit boundaries, and sums near LIMIT
wide_exponents = st.sampled_from((0, 1, 2, 3, 127, 128, 129, 255, 256,
                                  LIMIT // 2 - 1, LIMIT // 2))
wide_coefficients = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3)))
wide_monomials = st.tuples(wide_exponents, wide_exponents)
wide_polynomials = st.dictionaries(wide_monomials, wide_coefficients, max_size=3).map(
    lambda terms: Polynomial(2, terms))
wide_qss = st.dictionaries(st.tuples(wide_monomials, wide_monomials), wide_coefficients,
                           max_size=3).map(lambda terms: QssPoly(2, terms))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.tuples(wide_polynomials, wide_polynomials), st.tuples(wide_qss, wide_qss)))
def test_packed_products_match_the_tuple_product(pair):
    p, q = pair
    want = reference_product(p, q)
    if any(e >= LIMIT for mono in want for e in mono):
        with pytest.raises(ValueError, match="reached"):
            p * q
    else:
        assert (p * q).terms == want
