"""Symmetric-function generators and the KP identity family.

Power sums are the single-part M elements; the complete homogeneous
function h_n is the sum of M_C over all compositions C of n (the `newton`
suite checks it against Newton's recursion n h_n = sum p_k h_{n-k}).  The
identity family

    h_m h_{n+1} - h_{m+1} h_n
        = sum_{k=1}^m h_k o (h_{m-k} h_n) - sum_{k=1}^n h_k o (h_{n-k} h_m)

(with o the first graded product) vanishes identically in QSym; rendered
through the linear map sending p_n to -phi_{t_n}, products of power sums
to mixed t-derivatives and o-products to noncommutative juxtaposition, the
(1,2) member becomes the noncommutative KP equation.  The rendering acts
on expression trees, not on evaluated elements: trees with equal values
may print differently (the difference is a consequence of the hierarchy).

The family is made of products h_m h_n, which `h_product` builds without
the pairwise quasi-shuffle table of `mul`.  Every word of M_C M_D starts
with C's first part, D's first part or their sum, and removing the first
part i from all compositions of m leaves all compositions of m - i, so

    h_m h_n = sum_i (i).(h_{m-i} h_n) + sum_j (j).(h_m h_{n-j})
              + sum_{i,j} (i+j).(h_{m-i} h_{n-j}),

where (i).X puts the part i in front of every word of X and h_0 = 1.
That costs O(m n) passes over the smaller products instead of one
quasi-shuffle per pair of the 2^(m-1) 2^(n-1) composition pairs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

from quasisym.composition import compositions_of, positive_index
from quasisym.elements import (
    QSymElem, bilinear, format_terms, linear, monomial, one, scale, scaled_terms, sum_terms,
)
from quasisym.products import bullet, mul


def power_sum(n: int) -> QSymElem:
    """p_n, the n-th power sum."""
    return monomial("M", (positive_index(n, "power sum index"),))


@lru_cache(maxsize=None, typed=True)
def complete_h(n: int) -> QSymElem:
    """h_n, the sum of M_C over all compositions C of n."""
    n = positive_index(n, "complete homogeneous index", least=0)
    return QSymElem._raw("M", dict.fromkeys(compositions_of(n), 1))


@lru_cache(maxsize=None)
def _h_words(m: int, n: int) -> tuple:
    """(word, multiplicity) pairs of h_m h_n on the M basis, by the
    first-part recursion in the module docstring.  A tuple, so the cached
    entry cannot be changed through the result."""
    if m > n:
        return _h_words(n, m)  # the product is commutative
    if m == 0:
        return tuple((tuple(c), 1) for c in compositions_of(n))
    acc = defaultdict(int)
    for i in range(1, m + 1):
        for w, x in _h_words(m - i, n):
            acc[(i,) + w] += x
        for j in range(1, n + 1):
            for w, x in _h_words(m - i, n - j):
                acc[(i + j,) + w] += x
    for j in range(1, n + 1):
        for w, x in _h_words(m, n - j):
            acc[(j,) + w] += x
    return tuple(acc.items())


def h_product(m: int, n: int) -> QSymElem:
    """h_m h_n, by the first-part recursion of `_h_words` instead of `mul`."""
    m = positive_index(m, "complete homogeneous index", least=0)
    n = positive_index(n, "complete homogeneous index", least=0)
    return QSymElem._words("M", dict(_h_words(m, n)))


def partitions_of(n: int) -> list:
    """Partitions of n as weakly decreasing compositions, sorted canonically."""
    return sorted(
        (c for c in compositions_of(n) if all(c[i] >= c[i + 1] for i in range(len(c) - 1))),
        key=lambda c: tuple(c),
    )


def elementary_schur(n: int) -> dict:
    """Coefficients of the n-th elementary Schur polynomial in t_1, t_2, ...

    Read off exp(sum_k zeta^k t_k): the coefficient of prod t_k^{m_k} with
    sum k m_k = n is 1 / prod m_k!.  Substituting t_k = p_k / k recovers
    h_n (equivalently h_n = sum over partitions of p_lambda / z_lambda).
    """
    out = {}
    for lam in partitions_of(positive_index(n, "elementary Schur index", least=0)):
        coeff = Fraction(1)
        for part in set(lam):
            coeff /= math.factorial(lam.count(part))
        out[lam] = coeff
    return out


def schur_substitution(n: int) -> QSymElem:
    """s_n(p_1, p_2/2, p_3/3, ...) multiplied out in QSym."""
    acc = QSymElem("M", {})
    for lam, coeff in elementary_schur(n).items():
        term = one()
        for part in lam:
            term = mul(term, scale(Fraction(1, part), power_sum(part)))
        acc = acc + scale(coeff, term)
    return acc


def kp_identity(m: int, n: int):
    """Both sides of the (m, n) identity; their difference is 0 in QSym."""
    m, n = positive_index(m, "identity index m"), positive_index(n, "identity index n")
    lhs = h_product(m, n + 1) - h_product(m + 1, n)
    rhs = QSymElem("M", {})
    for k in range(1, m + 1):
        rhs = rhs + bullet(1, complete_h(k), h_product(m - k, n))
    for k in range(1, n + 1):
        rhs = rhs - bullet(1, complete_h(k), h_product(n - k, m))
    return lhs, rhs


def kp_classical_identity():
    """The KP identity 4 p1 p3 - 3 p2^2 - p1^4 = -6 p1 (p1 o p1) + 6 (p1 o p2 - p2 o p1)."""
    p1, p2, p3 = power_sum(1), power_sum(2), power_sum(3)
    p1sq = mul(p1, p1)
    lhs = 4 * mul(p1, p3) - 3 * mul(p2, p2) - mul(p1sq, p1sq)
    rhs = -6 * mul(p1, bullet(1, p1, p1)) + 6 * (bullet(1, p1, p2) - bullet(1, p2, p1))
    return lhs, rhs


# -- sigma: rendering identities as hierarchy equations --------------------

class _Record:
    """A frozen record of the fields named by its class's ``__slots__``: equal
    only to a record of the same type with equal fields, and hashable."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class PLeaf(_Record):
    """coeff * p_lambda for a nonempty partition lambda (zero counit)."""

    __slots__ = ("coeff", "parts")

    def __init__(self, coeff: Fraction, parts: tuple):
        if not parts:
            raise ValueError("sigma is undefined on constants: partition must be nonempty")
        for p in parts:
            positive_index(p, "partition part")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"not a partition: {parts!r}")
        super().__init__(coeff, parts)


class PTimes(_Record):
    """Multiplication by p_n: renders as the t_n-derivative of the inside."""

    __slots__ = ("n", "inner")


class SBullet(_Record):
    __slots__ = ("left", "right")


class SScale(_Record):
    __slots__ = ("coeff", "inner")


class SSum(_Record):
    __slots__ = ("children",)


def p_leaf(coeff, parts) -> PLeaf:
    return PLeaf(Fraction(coeff), tuple(sorted(parts, reverse=True)))


def h_leaf_sum(n: int) -> SSum:
    """h_n as a sum of p_lambda leaves (coefficients 1 / z_lambda).

    n >= 1: h_0 has nonzero counit, so it appears only inside ordinary products.
    """
    leaves = []
    schur = elementary_schur(positive_index(n, "leaf sum index"))
    for lam, coeff in sorted(schur.items(), key=lambda kv: tuple(kv[0])):
        for part in lam:
            coeff = coeff / part
        leaves.append(PLeaf(coeff, tuple(lam)))
    return SSum(tuple(leaves))


def merge_partitions(a, b) -> tuple:
    return tuple(sorted(tuple(a) + tuple(b), reverse=True))


def leaf_product(x: SSum, y: SSum) -> SSum:
    """Ordinary product of two leaf sums (symmetric functions stay leaves)."""
    out = []
    for la in x.children:
        for lb in y.children:
            out.append(PLeaf(la.coeff * lb.coeff, merge_partitions(la.parts, lb.parts)))
    return SSum(tuple(out))


class PdeTerm(_Record):
    """coeff times an ordered product of factors -phi_{t_i...}; each factor
    is recorded as the sorted multiset of derivative indices."""

    __slots__ = ("coeff", "factors")


def sigma_terms(expr) -> list:
    """Apply the correspondence and collect like terms.

    Rules: sigma(c p_lambda) = -c phi_{t_lambda}; sigma(p_n a) is the
    t_n-derivative of sigma(a) (Leibniz across factors, order kept);
    sigma(a o b) = sigma(a) sigma(b) with factors concatenated.
    """
    terms = _sigma(expr)
    return [PdeTerm(terms[f], f) for f in sorted(terms, key=_term_key)]


def _term_key(factors):
    return (len(factors), tuple((len(f), f) for f in factors))


def _sigma(expr) -> dict:
    """sigma(expr) as a {factors: coefficient} map."""
    if isinstance(expr, PLeaf):
        return scaled_terms(expr.coeff, {(tuple(sorted(expr.parts)),): -1})
    if isinstance(expr, SScale):
        return scaled_terms(expr.coeff, _sigma(expr.inner))
    if isinstance(expr, SSum):
        return sum_terms(*map(_sigma, expr.children))
    if isinstance(expr, SBullet):
        return bilinear(_sigma(expr.left), _sigma(expr.right), lambda f, g: (f + g,))
    if isinstance(expr, PTimes):
        n = positive_index(expr.n, "derivative index")
        return linear(_sigma(expr.inner), lambda f: (
            f[:i] + (tuple(sorted(f[i] + (n,))),) + f[i + 1:] for i in range(len(f))))
    raise TypeError(f"not a sigma expression: {expr!r}")


def render_terms(terms, normalize: bool = False) -> str:
    """Deterministic text for a collected term list.

    With normalize the whole expression is scaled by the least common
    denominator, with the sign that makes the first term positive.
    """
    if not terms:
        return "0"
    factor = 1
    if normalize:
        factor = math.lcm(*(t.coeff.denominator for t in terms))
        if terms[0].coeff < 0:
            factor = -factor
    def phi(f):
        return "phi_{" + ",".join(f"t{i}" for i in f) + "}"
    return format_terms((t.coeff * factor, "*".join(map(phi, t.factors))) for t in terms)


def sigma_render(expr, normalize: bool = False) -> str:
    """Text of sigma(expr); normalize scales away denominators and fixes the sign."""
    return render_terms(sigma_terms(expr), normalize)


def kp_sigma_expression(m: int, n: int) -> SSum:
    """Expression tree of the (m, n) identity's lhs - rhs, ready for sigma."""
    m, n = positive_index(m, "identity index m"), positive_index(n, "identity index n")
    children = list(leaf_product(h_leaf_sum(m), h_leaf_sum(n + 1)).children)
    children.extend(SScale(Fraction(-1), leaf) for leaf in
                    leaf_product(h_leaf_sum(m + 1), h_leaf_sum(n)).children)

    def h_mul_h(a: int, b: int) -> SSum:
        if a == 0:
            return h_leaf_sum(b)
        return leaf_product(h_leaf_sum(a), h_leaf_sum(b))

    for k in range(1, m + 1):
        children.append(SScale(Fraction(-1), SBullet(h_leaf_sum(k), h_mul_h(m - k, n))))
    for k in range(1, n + 1):
        children.append(SBullet(h_leaf_sum(k), h_mul_h(n - k, m)))
    return SSum(tuple(children))


def kp_classical_sigma_expression() -> SSum:
    """Tree of 4 p1 p3 - 3 p2^2 - p1^4 + 6 p1 (p1 o p1) - 6 (p1 o p2) + 6 (p2 o p1)."""
    p = lambda *parts: SSum((PLeaf(Fraction(1), tuple(parts)),))
    return SSum(
        (
            p_leaf(4, (3, 1)),
            p_leaf(-3, (2, 2)),
            p_leaf(-1, (1, 1, 1, 1)),
            SScale(Fraction(6), PTimes(1, SBullet(p(1), p(1)))),
            SScale(Fraction(-6), SBullet(p(1), p(2))),
            SScale(Fraction(6), SBullet(p(2), p(1))),
        )
    )
