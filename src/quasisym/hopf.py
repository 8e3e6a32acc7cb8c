"""Coproduct, counit laws, antipode, and the tensor-square bimodule.

The coproduct deconcatenates on the M basis.  Together with any of the
graded products it makes QSym an infinitesimal bialgebra: the coproduct is
a derivation of those products, which is what the derivation and
distributivity checks in the test suite exercise.  The antipode is the
signed reversal M_C -> (-1)^len(C) Mt_{reverse(C)} and interacts with the
graded products by exchanging left and right with a sign.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from quasisym.composition import Composition, canonical_key, omega
from quasisym.elements import (
    QSymElem, coefficient, monomial, numerators, scaled_terms, stored, sum_terms, to_basis,
)
from quasisym.products import _m, bullet, mul


class TensorElem:
    """Element of QSym (x) QSym with both legs in the M basis."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (left, right), coeff in (terms or {}).items():
            coeff = coefficient(coeff)
            if coeff:
                clean[(Composition(left), Composition(right))] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, terms: dict) -> "TensorElem":
        """Like QSymElem._trusted, on pairs of kernel words."""
        self, new = object.__new__(cls), tuple.__new__
        pairs = {(new(Composition, a), new(Composition, b)): v for (a, b), v in terms.items()}
        object.__setattr__(self, "terms", pairs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TensorElem is immutable")

    def __add__(self, other):
        if not isinstance(other, TensorElem):
            return NotImplemented
        return TensorElem._trusted(sum_terms(self.terms, other.terms))

    def __neg__(self):
        return TensorElem._trusted({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TensorElem):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return TensorElem._trusted(scaled_terms(scalar, self.terms))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TensorElem):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (canonical_key(kv[0][0]), canonical_key(kv[0][1])),
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (left, right), coeff in self.sorted_terms():
            la = "1" if not left else f"M{left!r}"
            ra = "1" if not right else f"M{right!r}"
            body = f"{la} (x) {ra}"
            if coeff != 1:
                body = f"{coeff}*{body}" if coeff != -1 else f"-{body}"
            bits.append(body)
        return " + ".join(bits)


def tensor_of(a: QSymElem, b: QSymElem) -> TensorElem:
    """The pure tensor a (x) b, bilinearly."""
    da, na = numerators(_m(a).terms)
    db, nb = numerators(_m(b).terms)
    return TensorElem._trusted(
        stored({(A, B): x * y for A, x in na.items() for B, y in nb.items()}, da * db)
    )


def coproduct(a: QSymElem) -> TensorElem:
    """Deconcatenation: Delta(M_C) = sum over C = AB of M_A (x) M_B (one C per key)."""
    return TensorElem._trusted({
        (comp[:cut], comp[cut:]): coeff
        for comp, coeff in _m(a).terms.items()
        for cut in range(len(comp) + 1)
    })


def tensor_bullet_right(t: TensorElem, k: int, c: QSymElem) -> TensorElem:
    """(a (x) b) o_k c = a (x) (b o_k c)."""
    dt, nt = numerators(t.terms)
    dc, nc = numerators(_m(c).terms)
    c = QSymElem._trusted("M", nc)
    acc = defaultdict(int)
    for (left, right), x in nt.items():
        for comp, u in bullet(k, monomial("M", right), c).terms.items():
            acc[(left, comp)] += x * u
    return TensorElem._trusted(stored(acc, dt * dc))


def tensor_bullet_left(c: QSymElem, k: int, t: TensorElem) -> TensorElem:
    """c o_k (a (x) b) = (c o_k a) (x) b."""
    dt, nt = numerators(t.terms)
    dc, nc = numerators(_m(c).terms)
    c = QSymElem._trusted("M", nc)
    acc = defaultdict(int)
    for (left, right), x in nt.items():
        for comp, u in bullet(k, c, monomial("M", left)).terms.items():
            acc[(comp, right)] += x * u
    return TensorElem._trusted(stored(acc, dt * dc))


def tensor_mul(t: TensorElem, u: TensorElem) -> TensorElem:
    """Leg-wise ordinary product: (a (x) b)(c (x) d) = ac (x) bd."""
    dt, nt = numerators(t.terms)
    du, nu = numerators(u.terms)
    acc = defaultdict(int)
    for (a, b), x in nt.items():
        for (c, d), y in nu.items():
            left = mul(monomial("M", a), monomial("M", c))
            right = mul(monomial("M", b), monomial("M", d))
            xy = x * y
            for lc, lv in left.terms.items():
                for rc, rv in right.terms.items():
                    acc[(lc, rc)] += xy * lv * rv
    return TensorElem._trusted(stored(acc, dt * du))


def _collapse(t: TensorElem, product) -> QSymElem:
    """Sum of coeff * product(M_left, M_right) over t's terms."""
    d, nums = numerators(t.terms)
    acc = defaultdict(int)
    for (left, right), x in nums.items():
        for comp, u in product(monomial("M", left), monomial("M", right)).terms.items():
            acc[comp] += x * u
    return QSymElem._trusted("M", stored(acc, d))


def m_k(k: int, t: TensorElem) -> QSymElem:
    """Collapse a tensor through o_k: sends a (x) b to a o_k b."""
    return _collapse(t, lambda a, b: bullet(k, a, b))


def counit_left(t: TensorElem) -> QSymElem:
    """(eps (x) id) applied to a tensor."""
    return QSymElem._trusted("M", {right: c for (left, right), c in t.terms.items() if not left})


def counit_right(t: TensorElem) -> QSymElem:
    """(id (x) eps) applied to a tensor."""
    return QSymElem._trusted("M", {left: c for (left, right), c in t.terms.items() if not right})


def antipode(a: QSymElem) -> QSymElem:
    """S(M_C) = (-1)^len(C) Mt_{reverse(C)}, returned in the M basis."""
    image = {comp[::-1]: -c if len(comp) % 2 else c for comp, c in _m(a).terms.items()}
    return to_basis(QSymElem._trusted("Mt", image), "M")


def antipode_F(c) -> QSymElem:
    """S(F_C) = (-1)^|C| F_{omega(C)} as an F-basis element."""
    c = Composition(c)
    if not c:
        raise ValueError("the F-basis antipode formula needs a nonempty composition")
    return QSymElem("F", {omega(c): -1 if c.weight % 2 else 1})


def antipode_axiom_left(a: QSymElem) -> QSymElem:
    """mu (id (x) S) Delta applied to a; equals counit(a) * 1 for the antipode."""
    return _collapse(coproduct(a), lambda left, right: mul(left, antipode(right)))


def antipode_axiom_right(a: QSymElem) -> QSymElem:
    """mu (S (x) id) Delta applied to a."""
    return _collapse(coproduct(a), lambda left, right: mul(antipode(left), right))


def derivation_delta(n: int, a: QSymElem) -> QSymElem:
    """delta_n(a) = p_n a = m_n(Delta(a)): a commuting family of derivations
    of every o_k."""
    if n < 1:
        raise ValueError(f"derivation index must be a positive integer, got {n}")
    return mul(monomial("M", (n,)), a)
