from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from quasisym.composition import enumerate_compositions
from quasisym.elements import monomial
from quasisym.oracle import Polynomial, expand
from quasisym.qss import (
    QssPoly,
    closure_probe,
    in_span,
    pbup_transcription,
    qss_bullet,
    qss_kp_check,
    qss_M,
    qss_one,
    qss_p,
    set_y_zero_x_vector,
    t_substitution_check,
)


def QP(n, terms):
    return QssPoly(n, {(tuple(x), tuple(y)): Fraction(c) for (x, y), c in terms.items()})


def test_qss_poly_basics():
    p = qss_p(1, 2)
    assert p == QP(2, {((1, 0), (0, 0)): 1, ((0, 1), (0, 0)): 1, ((0, 0), (1, 0)): -1, ((0, 0), (0, 1)): -1})
    assert p - p == QssPoly(2)
    with pytest.raises(ValueError):
        qss_p(1, 2) + qss_p(1, 3)
    with pytest.raises(ValueError):
        QssPoly(0)


def test_qss_poly_printing():
    assert repr(qss_p(1, 2)) == "x1 + x2 - y1 - y2"
    assert repr(QP(2, {((1, 0), (0, 2)): Fraction(3, 2), ((0, 0), (0, 0)): -1})) == "-1 + 3/2*x1*y2^2"
    assert repr(QssPoly(2)) == "0"


def test_qss_poly_printing_is_unchanged():
    # captured while QssPoly kept (x, y) pair keys and its own product
    assert repr(qss_M((2, 1), 3)) == (
        "x1^2*x2 + x1^2*x3 - x1^2*y1 - x1^2*y2 - x1^2*y3 + x2^2*x3 - x2^2*y2 - x2^2*y3 - x2*y1^2 "
        "- x3^2*y3 - x3*y1^2 - x3*y2^2 + y1^3 + y1^2*y2 + y1^2*y3 + y2^3 + y2^2*y3 + y3^3"
    )
    assert repr(qss_bullet(2, qss_p(1, 3), qss_p(2, 3))) == (
        "x1*x2^4 + x1*x2^2*x3^2 - x1*x2^2*y1^2 - x1*x2^2*y2^2 - x1*x2^2*y3^2 + x1*x3^4 "
        "- x1*x3^2*y1^2 - x1*x3^2*y2^2 - x1*x3^2*y3^2 + x1*y1^2*y2^2 + x1*y1^2*y3^2 "
        "+ x1*y2^2*y3^2 - x2^4*y1 - x2^2*x3^2*y1 + x2^2*y1^3 + x2^2*y1*y2^2 + x2^2*y1*y3^2 "
        "+ x2*x3^4 - x2*x3^2*y2^2 - x2*x3^2*y3^2 + x2*y2^2*y3^2 - x3^4*y1 - x3^4*y2 + x3^2*y1^3 "
        "+ x3^2*y1*y2^2 + x3^2*y1*y3^2 + x3^2*y2^3 + x3^2*y2*y3^2 - y1^3*y2^2 - y1^3*y3^2 "
        "- y1*y2^2*y3^2 - y2^3*y3^2"
    )
    assert repr(pbup_transcription(2, 1, 3)) == (
        "x1^2*x2^2 + x1^2*x2*x3 - x1^2*x2*y1 - x1^2*x2*y2 - x1^2*x2*y3 + x1^2*x3^2 - x1^2*x3*y1 "
        "- x1^2*x3*y2 - x1^2*x3*y3 + x1^2*y1*y2 + x1^2*y1*y3 + x1^2*y2*y3 + x2^2*x3^2 "
        "- x2^2*x3*y2 - x2^2*x3*y3 - x2^2*y1^2 + x2^2*y2*y3 - x2*x3*y1^2 + x2*y1^3 + x2*y1^2*y2 "
        "+ x2*y1^2*y3 - x3^2*y1^2 - x3^2*y2^2 + x3*y1^3 + x3*y1^2*y2 + x3*y1^2*y3 + x3*y2^3 "
        "+ x3*y2^2*y3 - y1^3*y2 - y1^3*y3 - y1^2*y2*y3 - y2^3*y3"
    )


def test_qss_poly_keys_are_flat():
    assert QP(2, {((1, 0), (0, 2)): 3}).terms == {(1, 0, 0, 2): 3}
    assert qss_p(1, 2).terms == {
        (1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): -1, (0, 0, 0, 1): -1,
    }
    assert QssPoly(3).n == 3 and QssPoly(3).space == 6
    # inherited Polynomial methods act on all 2N variables
    assert qss_p(1, 2).set_last_to_zero() == Polynomial(
        3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}
    )


def test_qss_poly_never_meets_a_polynomial():
    # same variable count and same stored terms, still different types
    q, p = QP(1, {((1,), (0,)): 1}), Polynomial(2, {(1, 0): 1})
    assert q.terms == p.terms and q.space == p.space
    assert q != p and p != q
    for op in (add, sub, mul):
        with pytest.raises(TypeError):
            op(q, p)
        with pytest.raises(TypeError):
            op(p, q)


def test_qss_bullet_examples():
    n2 = qss_one(2)
    assert qss_bullet(1, n2, n2) == qss_p(1, 2)
    x1 = QP(2, {((1, 0), (0, 0)): 1})
    assert qss_bullet(1, x1, n2) == QP(
        2, {((1, 1), (0, 0)): 1, ((1, 0), (1, 0)): -1, ((1, 0), (0, 1)): -1}
    )
    x2 = QP(2, {((0, 1), (0, 0)): 1})
    assert qss_bullet(1, x1, x2) == QP(2, {((1, 2), (0, 0)): 1, ((1, 1), (1, 0)): -1})
    with pytest.raises(ValueError):
        qss_bullet(0, n2, n2)
    with pytest.raises(ValueError):
        qss_bullet(1, qss_one(2), qss_one(3))


def test_qss_p_equals_unit_bullet():
    for r in (1, 2, 3):
        for n in (1, 2, 4):
            assert qss_p(r, n) == qss_bullet(r, qss_one(n), qss_one(n))


def test_qss_M():
    assert qss_M((), 3) == qss_one(3)
    for n in (1, 3):
        for r in (1, 2):
            assert qss_M((r,), n) == qss_p(r, n)


def test_y_zero_specialization():
    for c in enumerate_compositions(4):
        for n in (2, 4):
            got = set_y_zero_x_vector(qss_M(c, n))
            want = expand(monomial("M", c), n).terms
            assert got == want


def test_qss_weak_nonassociativity():
    elems = [qss_M(c, 3) for c in enumerate_compositions(2)]
    for k in (1, 2):
        for b in elems:
            for c in elems:
                mid = qss_bullet(k, b, c)
                lefts = [qss_bullet(k, a, mid) for a in elems]
                rights = [qss_bullet(k, mid, d) for d in elems]
                for i, a in enumerate(elems):
                    for j, d in enumerate(elems):
                        assert qss_bullet(k, lefts[i], d) == qss_bullet(k, a, rights[j])


def test_qss_weak_nonassociativity_mixed_ks():
    one3 = qss_one(3)
    p1, p2 = qss_p(1, 3), qss_p(2, 3)
    m11 = qss_M((1, 1), 3)
    for a, b, c, d in [
        (one3, one3, one3, one3),
        (p1, one3, p2, m11),
        (m11, p1, one3, p1),
        (p2, m11, p1, one3),
    ]:
        for k, m, n in [(1, 2, 1), (2, 1, 2), (1, 1, 2), (2, 2, 1)]:
            mid = qss_bullet(m, b, c)
            lhs = qss_bullet(n, qss_bullet(k, a, mid), d)
            rhs = qss_bullet(k, a, qss_bullet(n, mid, d))
            assert lhs == rhs


def test_qss_lemma_iter():
    unit = qss_one(3)
    elems = [qss_M(c, 3) for c in enumerate_compositions(2)]
    for a in elems:
        for b in elems:
            for k in (1, 2):
                for l in (1, 2):
                    lhs = qss_bullet(k, a, qss_bullet(l, unit, b)) - qss_bullet(
                        l, qss_bullet(k, a, unit), b
                    )
                    assert lhs == qss_bullet(k + l, a, b)


def test_qss_kp_identity():
    for n in (1, 2, 3, 4):
        assert qss_kp_check(n)


def test_pbup_transcription_matches_bullet():
    for r in (1, 2):
        for s in (1, 2):
            for n in (2, 4):
                assert pbup_transcription(r, s, n) == qss_bullet(1, qss_p(r, n), qss_p(s, n))


def test_t_substitution():
    for n in (2, 4):
        for r in (1, 2):
            p = qss_p(r, n)
            for i in range(n):
                assert t_substitution_check(p, i)
    a = qss_bullet(1, qss_p(1, 3), qss_p(1, 3))
    assert t_substitution_check(a, 1)
    x1 = QP(2, {((1, 0), (0, 0)): 1})
    assert not t_substitution_check(x1, 0)
    with pytest.raises(ValueError):
        t_substitution_check(x1, 5)


def test_t_substitution_all_generated_weight_4():
    for c in enumerate_compositions(4):
        a = qss_M(c, 4)
        for i in range(4):
            assert t_substitution_check(a, i)


def test_in_span():
    v1 = {("a",): Fraction(1), ("b",): Fraction(1)}
    v2 = {("b",): Fraction(1)}
    assert in_span([v1, v2], {("a",): Fraction(2), ("b",): Fraction(1)})
    assert not in_span([v2], {("a",): Fraction(1)})


def dense_in_span(vectors, target) -> bool:
    """Reference: Gauss-Jordan on dense Fraction rows of the transposed
    system, one column per vector plus the target; target is in the span
    exactly when its column gets no pivot."""
    keys = sorted(set().union(*[v.keys() for v in vectors], target.keys()))
    rows = [[Fraction(v.get(key, 0)) for v in vectors] + [Fraction(target.get(key, 0))]
            for key in keys]
    pivots, r = [], 0
    for c in range(len(vectors) + 1):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return len(vectors) not in pivots


def combination(coeffs, vectors) -> dict:
    keys = set().union(*[v.keys() for v in vectors])
    return {k: sum(c * v.get(k, 0) for c, v in zip(coeffs, vectors)) for k in keys}


# rational vectors over at most 5 keys; zero coefficients included
span_vectors = st.dictionaries(
    st.sampled_from([(c,) for c in "abcde"]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=5)
span_coeffs = st.lists(st.integers(-2, 2), min_size=4, max_size=4)


@st.composite
def span_cases(draw):
    """(vectors, combination coefficients, a random target); about half the
    time the last of two or more vectors is a combination of the others."""
    vectors = draw(st.lists(span_vectors, max_size=4))
    if len(vectors) > 1 and draw(st.booleans()):
        vectors[-1] = combination(draw(span_coeffs), vectors[:-1])
    return vectors, draw(span_coeffs), draw(span_vectors)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(span_cases())
def test_in_span_agrees_with_dense_elimination(case):
    vectors, coeffs, other = case
    spanned = combination(coeffs, vectors)
    assert in_span(vectors, spanned)
    for target in (spanned, other, {}):
        want = dense_in_span(vectors, target)
        assert in_span(vectors, target) == want
        assert in_span((v for v in vectors), target) == want


def test_closure_probe():
    results = list(closure_probe(4, 5))
    assert results
    assert all(ok for _, ok in results)


def test_ordinary_square_of_p1_in_generated_span():
    # p_1^2 = p_2 + 2 M_(1,1)-analog, already at truncation 1
    p1 = qss_p(1, 1)
    combo = qss_p(2, 1) + 2 * qss_M((1, 1), 1)
    assert p1 * p1 == combo
