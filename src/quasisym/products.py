"""Products on QSym: the commutative quasi-shuffle product and the graded
family of noncommutative, weakly nonassociative products.

Structure constants on the M basis:

    mul:     M_A * M_B     = sum over interleavings of A and B with optional
                             cross merges (quasi-shuffle)
    bullet:  M_A o_k 1       = M_{A(k)}
             M_A o_k M_{(m)B} = M_{A(k,m)B} + M_{A(k+m)B}
    hat:     1   o^_k M_B     = M_{(k)B}
             M_{A(m)} o^_k M_B = M_{A(m,k)B} + M_{A(m+k)B}

Closed forms on the other bases (two-term rule on Mt, one-term rule on F
for k = 1) are provided separately and agree with the M-basis rules after
conversion; the oracle module checks all of them against direct summation.
"""

from __future__ import annotations

from functools import partial

from quasisym._core import quasi_shuffle
from quasisym.composition import (
    Composition, elementary_compose, elementary_decompose, positive_index,
)
from quasisym.elements import QSymElem, _m, bilinear, monomial, one


def mul(a: QSymElem, b: QSymElem) -> QSymElem:
    """Ordinary (quasi-shuffle) product; commutative and associative."""
    return QSymElem._words("M", bilinear(_parts(a), _parts(b), quasi_shuffle))


def _parts(a: QSymElem) -> dict:
    """M-basis terms keyed by plain part tuples, as the kernel takes them: on a
    Composition its recursion would build checked Compositions through __radd__."""
    return {tuple(c): v for c, v in _m(a).terms.items()}


def _bullet_words(k: int, A: tuple, B: tuple):
    """The words C of the terms M_C of M_A o_k M_B, each with coefficient 1.

    Words are built by unpacking, so a Composition A or B gives plain tuples.
    """
    if not B:
        yield (*A, k)
    else:
        yield (*A, k, *B)
        yield (*A, k + B[0], *B[1:])


def _hat_words(k: int, A: tuple, B: tuple):
    """The words of M_A o^_k M_B (merge happens on the left)."""
    if not A:
        yield (k, *B)
    else:
        yield (*A, k, *B)
        yield (*A[:-1], A[-1] + k, *B)


def _bilinear(product_words, k: int, a: QSymElem, b: QSymElem) -> QSymElem:
    image = partial(product_words, positive_index(k, "product index"))
    return QSymElem._words("M", bilinear(_m(a).terms, _m(b).terms, image))


def bullet(k: int, a: QSymElem, b: QSymElem) -> QSymElem:
    """The weakly nonassociative product o_k; raises degree by deg a + deg b + k."""
    return _bilinear(_bullet_words, k, a, b)


def hat_bullet(k: int, a: QSymElem, b: QSymElem) -> QSymElem:
    """The mirror product o^_k: reverse of o_k under M_C -> M_{reverse(C)}."""
    return _bilinear(_hat_words, k, a, b)


def bullet_via_first(k: int, a: QSymElem, b: QSymElem) -> QSymElem:
    """o_k expressed through o_1 alone:

        a o_{k+1} b = a o_k (1 o_1 b) - (a o_k 1) o_1 b

    applied recursively until only o_1 remains.  Exists to demonstrate that
    1 and o_1 generate everything; `bullet` is the native implementation.
    """
    if positive_index(k, "product index") == 1:
        return bullet(1, a, b)
    return bullet_via_first(k - 1, a, bullet(1, one(), b)) - bullet(
        1, bullet_via_first(k - 1, a, one()), b
    )


def reverse_map(a: QSymElem) -> QSymElem:
    """Linear extension of M_C -> M_{reverse(C)}."""
    return QSymElem._words("M", {c[::-1]: v for c, v in _m(a).terms.items()})


# -- closed forms on the Mt and F bases -----------------------------------

def bullet_tilde(k: int, left, right) -> QSymElem:
    """Mt_left o_k Mt_right in the Mt basis.

    For nonempty left = A(m) this is the two-term rule
    Mt_{A(m,k)right} - Mt_{A(m+k)right}; for empty left it is the recursion
    Mt_{(k)right} = 1 o_k Mt_right.
    """
    positive_index(k, "product index")
    left, right = Composition(left), Composition(right)
    if not left:
        return monomial("Mt", (k,) + tuple(right))
    terms = {
        Composition(tuple(left) + (k,) + tuple(right)): 1,
        Composition(tuple(left[:-1]) + (left[-1] + k,) + tuple(right)): -1,
    }
    return QSymElem("Mt", terms)


def bullet_F(A, right) -> QSymElem:
    """F_A o_1 F_right = F_{A (m+1) B} where right = (m)B is nonempty.

    The one-term rule holds for o_1 only; other k route through the M basis.
    """
    A, right = Composition(A), Composition(right)
    if not right:
        raise ValueError("the F-basis rule needs a nonempty right composition")
    return monomial("F", tuple(A) + (right[0] + 1,) + tuple(right[1:]))


def elementary_F(m: int, n: int) -> QSymElem:
    """L_1^m R_1^n (1 o_1 1): the M-basis value of F_{(m+1, 1^n)}."""
    e = bullet(1, one(), one())
    for _ in range(positive_index(m, "block parameter", least=0)):
        e = bullet(1, one(), e)
    for _ in range(positive_index(n, "block parameter", least=0)):
        e = bullet(1, e, one())
    return e


def factorize_F(c) -> list:
    """The elementary o_1 factors of F_c, left to right.

    Multiplying them with o_1 in any bracketing reproduces F_c: every
    factor has zero counit, where the product is associative.
    """
    blocks = elementary_decompose(c)
    return [monomial("F", elementary_compose([block])) for block in blocks]
