"""Two-alphabet truncation: polynomials in x_1..x_N, y_1..y_N with the
graded products defined through per-monomial min/max index windows.

Elements are kept concretely as truncated polynomials on the sparse core
(no structure constants are assumed for this extension).  Generated from 1
by the products, they specialize to the one-alphabet picture at y = 0 and
are t-independent under the substitution x_i = y_i = t, the defining
property of the supersymmetric world.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import partial

from quasisym.composition import Composition, compositions_of, positive_index
from quasisym.elements import Sparse, bilinear, linear
from quasisym.oracle import Polynomial, exponent_vector, monomial_text


class QssPoly(Sparse):
    """Sparse polynomial over two interleaved alphabets of N variables each.

    Keys are pairs (x-exponent tuple, y-exponent tuple), both of length N.
    """

    __slots__ = ()
    n = Sparse.space  # the space slot, read under its own name
    _spaces = "truncation levels"

    def __init__(self, n: int, terms=None):
        Sparse.__init__(self, positive_index(n, "variables per alphabet"), terms)

    def _key(self, key) -> tuple:
        xe, ye = key
        return exponent_vector(xe, self.n), exponent_vector(ye, self.n)

    def _product(self, other):
        return QssPoly._raw(self.n, bilinear(self.terms, other.terms, _merge))

    @staticmethod
    def _order(key):
        return Polynomial._order(key[0] + key[1])

    @staticmethod
    def _atom(key) -> str:
        return monomial_text(x=key[0], y=key[1])


def _merge(ka, kb) -> tuple:
    """The product of two monomials, as a one-key image."""
    return ((tuple(p + q for p, q in zip(ka[0], kb[0])),
             tuple(p + q for p, q in zip(ka[1], kb[1]))),)


def qss_one(n: int) -> QssPoly:
    zero = (0,) * positive_index(n, "variables per alphabet")
    return QssPoly(n, {(zero, zero): 1})


def _used(key) -> list:
    """The indices of the variables a monomial uses, both alphabets pooled."""
    return [i for exps in key for i, e in enumerate(exps) if e]


def _mono_mul(key, i, alphabet, k):
    """Multiply monomial key by x_i^k or y_i^k."""
    xe, ye = key
    if alphabet == "x":
        xe = xe[:i] + (xe[i] + k,) + xe[i + 1 :]
    else:
        ye = ye[:i] + (ye[i] + k,) + ye[i + 1 :]
    return (xe, ye)


def _bullet_image(k: int, n: int, ka, kb) -> dict:
    """The monomials of M_ka o_k M_kb with their signs (see qss_bullet)."""
    top = max(_used(ka), default=-1)  # M(a); -1 for the constant
    low = min(_used(kb), default=n)  # m(b); n for the constant
    (merged,) = _merge(ka, kb)
    # x_i for M(a) < i <= m(b), y_i for M(a) <= i < m(b), all within 0..n-1
    out = {_mono_mul(merged, i, "x", k): 1 for i in range(top + 1, min(low + 1, n))}
    out.update((_mono_mul(merged, i, "y", k), -1) for i in range(max(top, 0), low))
    return out


def qss_bullet(k: int, a: QssPoly, b: QssPoly) -> QssPoly:
    """The graded product, monomial pair by monomial pair.

    With m/M the min/max used index of a monomial (both alphabets pooled):

        1 o_k 1 = sum_i (x_i^k - y_i^k)
        1 o_k b = sum_{i <= m(b)} x_i^k b - sum_{i < m(b)} y_i^k b
        a o_k 1 = sum_{M(a) < i} a x_i^k - sum_{M(a) <= i} a y_i^k
        a o_k b = sum_{M(a) < i <= m(b)} a x_i^k b
                  - sum_{M(a) <= i < m(b)} a y_i^k b

    Ranges with no admissible index contribute zero.
    """
    image = partial(_bullet_image, positive_index(k, "product index"), a.n)
    a._align(b)
    return QssPoly._raw(a.n, bilinear(a.terms, b.terms, image))


def qss_p(r: int, n: int) -> QssPoly:
    """The generator sum_{i=1}^N (x_i^r - y_i^r); equals 1 o_r 1."""
    positive_index(r, "generator index")
    terms = {}
    zero = (0,) * positive_index(n, "variables per alphabet")
    for i in range(n):
        xe = zero[:i] + (r,) + zero[i + 1 :]
        terms[(xe, zero)] = 1
        terms[(zero, xe)] = -1
    return QssPoly(n, terms)


def qss_M(comp, n: int) -> QssPoly:
    """The recursively generated element: 1 for the empty composition, then
    right-multiplication by 1 under o_part for each part in turn."""
    comp = Composition(comp)
    out = qss_one(n)
    for part in comp:
        out = qss_bullet(part, out, qss_one(n))
    return out


def qss_kp_check(n: int) -> bool:
    """The two-alphabet KP identity at truncation n, checked literally."""
    p1, p2, p3 = qss_p(1, n), qss_p(2, n), qss_p(3, n)
    lhs = 4 * (p1 * p3) - 3 * (p2 * p2) - p1 * p1 * p1 * p1
    rhs = -6 * (p1 * qss_bullet(1, p1, p1)) + 6 * (
        qss_bullet(1, p1, p2) - qss_bullet(1, p2, p1)
    )
    return lhs == rhs


def t_substitution_check(a: QssPoly, i: int) -> bool:
    """True iff substituting x_i = y_i = t leaves no positive power of t.

    Collects a as a polynomial in t with two-alphabet coefficients and
    requires every coefficient of t^j, j >= 1, to vanish.
    """
    if positive_index(i, "variable index", least=0) >= a.n:
        raise ValueError(f"index out of range: {i}")

    def by_degree(key):
        xe, ye = key
        if xe[i] + ye[i]:
            yield xe[i] + ye[i], (xe[:i] + (0,) + xe[i + 1 :], ye[:i] + (0,) + ye[i + 1 :])
    return not linear(a.terms, by_degree)


def pbup_transcription(r: int, s: int, n: int) -> QssPoly:
    """Literal double-sum transcription of the generator product

        sum_{i < j <= k} (x_i^r - y_i^r) x_j (x_k^s - y_k^s)
      - sum_{i <= j < k} (x_i^r - y_i^r) y_j (x_k^s - y_k^s)

    kept as an independent cross-check of qss_bullet(1, p_r, p_s).
    """
    acc = defaultdict(int)
    zero = (0,) * n

    def add_products(i, j, k, middle, sign):
        # (x_i^r - y_i^r) * z_j * (x_k^s - y_k^s), z the middle alphabet
        for si, ai in ((1, "x"), (-1, "y")):
            for sk, ak in ((1, "x"), (-1, "y")):
                xe, ye = list(zero), list(zero)
                (xe if ai == "x" else ye)[i] += r
                (xe if middle == "x" else ye)[j] += 1
                (xe if ak == "x" else ye)[k] += s
                acc[(tuple(xe), tuple(ye))] += sign * si * sk
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j, n):
                add_products(i, j, k, "x", 1)
    for i in range(n):
        for j in range(i, n):
            for k in range(j + 1, n):
                add_products(i, j, k, "y", -1)
    return QssPoly(n, acc)


def set_y_zero_x_vector(a: QssPoly):
    """Monomials surviving y = 0, as a map x-exponent tuple -> coefficient."""
    zero = (0,) * a.n
    return {xe: coeff for (xe, ye), coeff in a.terms.items() if ye == zero}


def _row_reduce(rows):
    """In-place exact Gaussian elimination; returns the pivot column list."""
    pivots = []
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
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
        if r == len(rows):
            break
    return pivots


def in_span(vectors, target) -> bool:
    """Exact membership of target in the rational span of vectors.

    vectors and target are maps monomial -> coefficient over any shared key
    space; decided by row reduction of the transposed system.
    """
    keys = sorted(set().union(*[v.keys() for v in vectors], target.keys()))
    if not keys:
        return True
    # columns: one per vector, plus the target; eliminate and look for a
    # pivot in the target column
    rows = [
        [Fraction(v.get(key, 0)) for v in vectors] + [Fraction(target.get(key, 0))]
        for key in keys
    ]
    pivots = _row_reduce(rows)
    return len(vectors) not in pivots


def closure_probe(max_weight: int, n: int):
    """Empirical check that ordinary products of generated elements stay in
    the generated span at matching truncation.

    Yields (case name, bool) for every pair of nonempty compositions with
    combined weight <= max_weight.
    """
    comps = [
        c
        for w in range(1, max_weight)
        for c in compositions_of(w)
    ]
    cache = {}

    def gen(c):
        if c not in cache:
            cache[c] = qss_M(c, n)
        return cache[c]

    for a in comps:
        for b in comps:
            w = a.weight + b.weight
            if w > max_weight:
                continue
            product = gen(a) * gen(b)
            basis = [gen(c).terms for c in compositions_of(w)]
            ok = in_span(basis, product.terms)
            yield (f"M{a!r}*M{b!r} in span(weight {w})", ok)
