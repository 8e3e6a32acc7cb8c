"""Two-alphabet truncation: polynomials in x_1..x_N, y_1..y_N with the
graded products defined through per-monomial min/max index windows.

Elements are kept concretely as truncated polynomials (no structure
constants are assumed for this extension).  Generated from 1 by the
products, they specialize to the one-alphabet picture at y = 0 and are
t-independent under the substitution x_i = y_i = t, the defining property
of the supersymmetric world.

A `QssPoly` is an oracle `Polynomial` over the 2N variables and shares its
product.  Its stored key packs 2N exponents, the x exponents then the y
exponents (y_i in field N + i - 1), and `.terms` shows them as one flat
tuple of length 2N; the constructor takes pairs (x-exponents, y-exponents).

`in_span`, the span test of the closure probe, is sparse elimination on
the core's forms (`form_of`, `scaled`, `sum_forms`).
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache, partial

from quasisym._core import LIMIT, W, check_fields, pack, unpack
from quasisym.composition import Composition, compositions_of, enumerate_compositions, positive_index
from quasisym.elements import bilinear, form_of, linear, reduced, scaled, sum_forms
from quasisym.oracle import Polynomial, exponent_vector, monomial_text


class QssPoly(Polynomial):
    """A polynomial over x_1..x_N, y_1..y_N, keyed as the module docstring says."""

    __slots__ = ()
    n = property(lambda self: self.space // 2, doc="variables per alphabet")

    def __init__(self, n: int, terms=None):
        Polynomial.__init__(self, 2 * positive_index(n, "variables per alphabet"), terms)

    def _key(self, key) -> int:
        xe, ye = key
        return pack(exponent_vector(xe, self.n) + exponent_vector(ye, self.n))

    def _atom(self, key) -> str:
        mono = unpack(key, self.space)
        return monomial_text(x=mono[: self.n], y=mono[self.n :])


def qss_one(n: int) -> QssPoly:
    return QssPoly._raw(2 * positive_index(n, "variables per alphabet"), {0: 1})  # key 0: x^0 y^0


def _exponent(r: int, what: str) -> int:
    """r if it is an int in 1..LIMIT-1: an index that becomes an exponent."""
    if positive_index(r, what) >= LIMIT:
        raise ValueError(f"{what} must be below {LIMIT}, got {r}")
    return r


def _bullet_image(k: int, n: int, ka: int, kb: int) -> dict:
    """The monomials of M_ka o_k M_kb with their signs (see qss_bullet)."""
    # a field of ka | ka >> W*n, cut to n fields, is nonzero where x_i or y_i is used
    fa, fb = (key & ((1 << W * n) - 1) | key >> W * n for key in (ka, kb))
    top = (fa.bit_length() - 1) // W  # M(a), the highest used field; -1 for the constant
    low = ((fb & -fb).bit_length() - 1) // W if fb else n  # m(b); n for the constant
    # an image is empty unless M(a) < m(b), when no field is used by both:
    # merged holds each exponent once, and adding k < LIMIT to it carries nowhere
    merged = ka + kb
    # x_i for M(a) < i <= m(b), y_i for M(a) <= i < m(b), all within 0..n-1
    out = {merged + (k << W * i): 1 for i in range(top + 1, min(low + 1, n))}
    out.update((merged + (k << W * (n + i)), -1) for i in range(max(top, 0), low))
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
    k = _exponent(k, "product index")
    a._align(b)
    nums, den = bilinear(a.form, b.form, partial(_bullet_image, k, a.n))
    return QssPoly._raw(a.space, check_fields(nums, a.space), den)


def qss_p(r: int, n: int) -> QssPoly:
    """The generator sum_{i=1}^N (x_i^r - y_i^r); equals 1 o_r 1."""
    r = _exponent(r, "generator index")
    n = positive_index(n, "variables per alphabet")
    # x_i^r in field i, y_i^r in field n + i
    return QssPoly._raw(2 * n, {r << W * i: 1 if i < n else -1 for i in range(2 * n)})


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
    n = a.n
    if positive_index(i, "variable index", least=0) >= n:
        raise ValueError(f"index out of range: {i}")

    field, xs, ys = (1 << W) - 1, W * i, W * (n + i)  # x_i in field i, y_i in field n + i

    def by_degree(key):
        d = (key >> xs & field) + (key >> ys & field)
        return ((d, key & ~(field << xs | field << ys)),) if d else ()
    return not linear(a.form, by_degree)[0]


def cancel_cases(max_weight: int, n: int):
    """t-substitution independence of the generated elements, all indices."""
    for c in enumerate_compositions(max_weight):
        a = qss_M(c, n)
        for i in range(n):
            yield (f"x_{i+1}=y_{i+1}=t on M{c!r}", t_substitution_check(a, i))


def pbup_transcription(r: int, s: int, n: int) -> QssPoly:
    """Literal double-sum transcription of the generator product

        sum_{i < j <= k} (x_i^r - y_i^r) x_j (x_k^s - y_k^s)
      - sum_{i <= j < k} (x_i^r - y_i^r) y_j (x_k^s - y_k^s)

    kept as an independent cross-check of qss_bullet(1, p_r, p_s).
    """
    r, s = _exponent(r, "generator index"), _exponent(s, "generator index")
    n = positive_index(n, "variables per alphabet")
    acc = defaultdict(int)

    def add_products(i, j, k, middle, sign):
        # (x_i^r - y_i^r) * z_j * (x_k^s - y_k^s); x_i sits in field i,
        # y_i in field n + i, and middle is the offset of z's alphabet
        for si, oi in ((1, 0), (-1, n)):
            for sk, ok in ((1, 0), (-1, n)):
                mono = (r << W * (oi + i)) + (1 << W * (middle + j)) + (s << W * (ok + k))
                acc[mono] += sign * si * sk
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if i < j:
                    add_products(i, j, k, 0, 1)
                if j < k:
                    add_products(i, j, k, n, -1)
    # r + 1 or s + 1 may reach LIMIT
    return QssPoly._raw(2 * n, check_fields(reduced(acc)[0], 2 * n))


def set_y_zero_x_vector(a: QssPoly):
    """Monomials surviving y = 0, as a map x-exponent tuple -> coefficient."""
    n = a.n
    return {key[:n]: coeff for key, coeff in a.terms.items() if not any(key[n:])}


def in_span(vectors, target) -> bool:
    """Exact membership of target in the rational span of vectors.

    vectors (any iterable) and target are maps key -> coefficient over any
    shared key space.  Each vector in turn is reduced by the pivots of the
    vectors before it, and a nonzero remainder adds a pivot: a key of its
    support, with its numerators.  target is in the span exactly when it
    reduces to zero.
    """
    pivots = {}

    def remainder(terms):
        nums, den = reduced(*form_of(terms))  # zero coefficients dropped
        # in pivot order: a pivot's form is zero at every earlier pivot's
        # key, so a key once cleared stays clear
        for key, pivot in pivots.items():
            if key in nums:
                # nums/den - (a/den) / (c/pden) * pivot/pden, with a and c the
                # numerators at key: pden cancels, and c is made positive
                a, c = nums[key], pivot[key]
                if c < 0:
                    a, c = -a, -c
                nums, den = sum_forms((nums, den), scaled(-a, (pivot, den * c)))
        return nums, den

    for v in vectors:
        nums, den = remainder(v)
        if nums:
            pivots[next(iter(nums))] = nums
    return not remainder(target)[0]


def closure_probe(max_weight: int, n: int):
    """Empirical check that ordinary products of generated elements stay in
    the generated span at matching truncation.

    Yields (case name, bool) for every pair of nonempty compositions with
    combined weight <= max_weight.
    """
    comps = [c for w in range(1, max_weight) for c in compositions_of(w)]
    gen = cache(partial(qss_M, n=n))
    for a in comps:
        for b in comps:
            w = a.weight + b.weight
            if w > max_weight:
                continue
            product = gen(a) * gen(b)
            # numerators: each a nonzero multiple of its element, so the span
            # test is the same, on stored keys
            basis = [gen(c).nums for c in compositions_of(w)]
            ok = in_span(basis, product.nums)
            yield (f"M{a!r}*M{b!r} in span(weight {w})", ok)
