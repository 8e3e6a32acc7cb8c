"""Coproduct, counit laws, antipode, and the tensor-square bimodule.

The coproduct deconcatenates on the M basis.  Together with any of the
graded products it makes QSym an infinitesimal bialgebra: the coproduct is
a derivation of those products, which is what the derivation and
distributivity checks in the test suite exercise.  The antipode is the
signed reversal M_C -> (-1)^len(C) Mt_{reverse(C)} and interacts with the
graded products by exchanging left and right with a sign.
"""

from __future__ import annotations

from quasisym._core import quasi_shuffle
from quasisym.composition import Composition, canonical_key, omega, positive_index
from quasisym.elements import QSymElem, Sparse, _m, bilinear, linear, monomial, to_basis
from quasisym.products import _bullet_words, bullet, mul


class TensorElem(Sparse):
    """Element of QSym (x) QSym with both legs in the M basis."""

    __slots__ = ()

    def __init__(self, terms=None):
        Sparse.__init__(self, None, terms)

    @classmethod
    def _words(cls, terms: dict) -> "TensorElem":
        """Like QSymElem._words, on pairs of kernel words."""
        new = tuple.__new__
        return cls._raw(None, {
            (new(Composition, a), new(Composition, b)): v for (a, b), v in terms.items()
        })

    @staticmethod
    def _key(key) -> tuple:
        left, right = key
        return Composition(left), Composition(right)

    @staticmethod
    def _order(key):
        return canonical_key(key[0]), canonical_key(key[1])

    @staticmethod
    def _atom(key) -> str:
        left, right = key
        return f"{f'M{left!r}' if left else '1'} (x) {f'M{right!r}' if right else '1'}"


def tensor_of(a: QSymElem, b: QSymElem) -> TensorElem:
    """The pure tensor a (x) b, bilinearly."""
    return TensorElem._raw(None, bilinear(_m(a).terms, _m(b).terms, lambda A, B: ((A, B),)))


def coproduct(a: QSymElem) -> TensorElem:
    """Deconcatenation: Delta(M_C) = sum over C = AB of M_A (x) M_B (one C per key)."""
    return TensorElem._words({
        (comp[:cut], comp[cut:]): coeff
        for comp, coeff in _m(a).terms.items()
        for cut in range(len(comp) + 1)
    })


def tensor_bullet_right(t: TensorElem, k: int, c: QSymElem) -> TensorElem:
    """(a (x) b) o_k c = a (x) (b o_k c)."""
    positive_index(k, "product index")
    return TensorElem._words(bilinear(t.terms, _m(c).terms, lambda ab, C: (
        (ab[0], w) for w in _bullet_words(k, ab[1], C))))


def tensor_bullet_left(c: QSymElem, k: int, t: TensorElem) -> TensorElem:
    """c o_k (a (x) b) = (c o_k a) (x) b."""
    positive_index(k, "product index")
    return TensorElem._words(bilinear(_m(c).terms, t.terms, lambda C, ab: (
        (w, ab[1]) for w in _bullet_words(k, C, ab[0]))))


def _leg_products(ab, cd) -> dict:
    """(a (x) b)(c (x) d) = ac (x) bd on basis tensors, through the kernel."""
    (a, b), (c, d) = ab, cd
    right = quasi_shuffle(tuple(b), tuple(d)).items()
    return {(lw, rw): lm * rm
            for lw, lm in quasi_shuffle(tuple(a), tuple(c)).items() for rw, rm in right}


def tensor_mul(t: TensorElem, u: TensorElem) -> TensorElem:
    """Leg-wise ordinary product: (a (x) b)(c (x) d) = ac (x) bd."""
    return TensorElem._words(bilinear(t.terms, u.terms, _leg_products))


def _collapse(t: TensorElem, product) -> QSymElem:
    """Sum of coeff * product(M_left, M_right) over t's terms."""
    return QSymElem._raw("M", linear(t.terms, lambda ab: product(
        monomial("M", ab[0]), monomial("M", ab[1])).terms))


def m_k(k: int, t: TensorElem) -> QSymElem:
    """Collapse a tensor through o_k: sends a (x) b to a o_k b."""
    return _collapse(t, lambda a, b: bullet(k, a, b))


def counit_left(t: TensorElem) -> QSymElem:
    """(eps (x) id) applied to a tensor."""
    return QSymElem._raw("M", {right: c for (left, right), c in t.terms.items() if not left})


def counit_right(t: TensorElem) -> QSymElem:
    """(id (x) eps) applied to a tensor."""
    return QSymElem._raw("M", {left: c for (left, right), c in t.terms.items() if not right})


def antipode(a: QSymElem) -> QSymElem:
    """S(M_C) = (-1)^len(C) Mt_{reverse(C)}, returned in the M basis."""
    image = {comp[::-1]: -c if len(comp) % 2 else c for comp, c in _m(a).terms.items()}
    return to_basis(QSymElem._words("Mt", image), "M")


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
    return mul(monomial("M", (positive_index(n, "derivation index"),)), a)
