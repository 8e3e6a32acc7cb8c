"""Coproduct, counit laws, antipode, and the tensor-square bimodule.

The coproduct deconcatenates on the M basis.  Together with any of the
graded products it makes QSym an infinitesimal bialgebra: the coproduct is
a derivation of those products, which is what the derivation and
distributivity checks in the test suite exercise.  The antipode is the
signed reversal M_C -> (-1)^len(C) Mt_{reverse(C)}, an involution, so also
Mt_C -> (-1)^len(C) M_{reverse(C)}, and interacts with the
graded products by exchanging left and right with a sign.

`products` and the kernel are imported once per call by the functions that
multiply, so the `coproduct` and `antipode` commands compile neither.
"""

from __future__ import annotations

from functools import partial

from quasisym.composition import Composition, canonical_key, omega, positive_index
from quasisym.elements import QSymElem, Sparse, _m, bilinear, linear, monomial, reduced, to_basis


class TensorElem(Sparse):
    """Element of QSym (x) QSym with both legs in the M basis."""

    __slots__ = ()

    @staticmethod
    def _key(key) -> tuple:
        left, right = key
        return Composition(left), Composition(right)

    @staticmethod
    def _order(key):
        return canonical_key(key[0]), canonical_key(key[1])

    @staticmethod
    def _wrap(key) -> tuple:
        return tuple(map(QSymElem._wrap, key))

    @staticmethod
    def _atom(key) -> str:
        return " (x) ".join(f"M{Composition.__repr__(w)}" if w else "1" for w in key)


def tensor_of(a: QSymElem, b: QSymElem) -> TensorElem:
    """The pure tensor a (x) b, bilinearly."""
    return TensorElem._raw(None, *bilinear(_m(a).form, _m(b).form, lambda A, B: ((A, B),)))


def coproduct(a: QSymElem) -> TensorElem:
    """Deconcatenation: Delta(M_C) = sum over C = AB of M_A (x) M_B (one C per key)."""
    m = _m(a)
    return TensorElem._raw(None, {
        (comp[:cut], comp[cut:]): coeff
        for comp, coeff in m.nums.items()
        for cut in range(len(comp) + 1)
    }, m.den)


def tensor_bullet_right(t: TensorElem, k: int, c: QSymElem) -> TensorElem:
    """(a (x) b) o_k c = a (x) (b o_k c)."""
    from quasisym.products import _bullet_words

    positive_index(k, "product index")
    return TensorElem._raw(None, *bilinear(t.form, _m(c).form, lambda ab, C: tuple(
        (ab[0], w) for w in _bullet_words(k, ab[1], C))))


def tensor_bullet_left(c: QSymElem, k: int, t: TensorElem) -> TensorElem:
    """c o_k (a (x) b) = (c o_k a) (x) b."""
    from quasisym.products import _bullet_words

    positive_index(k, "product index")
    return TensorElem._raw(None, *bilinear(_m(c).form, t.form, lambda C, ab: tuple(
        (w, ab[1]) for w in _bullet_words(k, C, ab[0]))))


def _leg_products(quasi_shuffle, ab, cd) -> dict:
    """(a (x) b)(c (x) d) = ac (x) bd on basis tensors, through the kernel, by word number."""
    (a, b), (c, d) = ab, cd
    right = quasi_shuffle(b, d).items()
    return {(lw, rw): lm * rm for lw, lm in quasi_shuffle(a, c).items() for rw, rm in right}


def tensor_mul(t: TensorElem, u: TensorElem) -> TensorElem:
    """Leg-wise ordinary product: (a (x) b)(c (x) d) = ac (x) bd."""
    from quasisym._core import NUMBERED, quasi_shuffle

    nums, den = bilinear(t.form, u.form, partial(_leg_products, quasi_shuffle))
    return TensorElem._raw(None, {(NUMBERED[lw], NUMBERED[rw]): x for (lw, rw), x in nums.items()}, den)


def _collapse(t: TensorElem, product) -> QSymElem:
    """Sum of coeff * product(M_left, M_right) over t's terms.  A product of two
    basis elements has den 1, so its numerators are its coefficients."""
    return QSymElem._raw("M", *linear(t.form, lambda ab: product(
        monomial("M", ab[0]), monomial("M", ab[1])).nums))


def m_k(k: int, t: TensorElem) -> QSymElem:
    """Collapse a tensor through o_k: sends a (x) b to a o_k b."""
    from quasisym.products import _bullet_words

    k = positive_index(k, "product index")
    return QSymElem._raw("M", *linear(t.form, lambda ab: _bullet_words(k, *ab)))


def counit_left(t: TensorElem) -> QSymElem:
    """(eps (x) id) applied to a tensor."""
    return QSymElem._raw("M", *reduced({b: c for (a, b), c in t.nums.items() if not a}, t.den))


def counit_right(t: TensorElem) -> QSymElem:
    """(id (x) eps) applied to a tensor."""
    return QSymElem._raw("M", *reduced({a: c for (a, b), c in t.nums.items() if not b}, t.den))


def antipode(a: QSymElem) -> QSymElem:
    """S(Mt_C) = (-1)^len(C) M_{reverse(C)} on a brought to Mt, returned in M."""
    mt = to_basis(a, "Mt")
    image = {c[::-1]: -x if len(c) % 2 else x for c, x in mt.nums.items()}
    return QSymElem._raw("M", image, mt.den)


def antipode_F(c) -> QSymElem:
    """S(F_C) = (-1)^|C| F_{omega(C)} as an F-basis element."""
    c = Composition(c)
    if not c:
        raise ValueError("the F-basis antipode formula needs a nonempty composition")
    return QSymElem("F", {omega(c): -1 if c.weight % 2 else 1})


def antipode_axiom_left(a: QSymElem) -> QSymElem:
    """mu (id (x) S) Delta applied to a; equals counit(a) * 1 for the antipode."""
    from quasisym.products import mul

    return _collapse(coproduct(a), lambda left, right: mul(left, antipode(right)))


def antipode_axiom_right(a: QSymElem) -> QSymElem:
    """mu (S (x) id) Delta applied to a."""
    from quasisym.products import mul

    return _collapse(coproduct(a), lambda left, right: mul(antipode(left), right))


def derivation_delta(n: int, a: QSymElem) -> QSymElem:
    """delta_n(a) = p_n a = m_n(Delta(a)): a commuting family of derivations
    of every o_k."""
    from quasisym.products import mul

    return mul(monomial("M", (positive_index(n, "derivation index"),)), a)
