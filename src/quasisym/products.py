"""Products on QSym: the commutative quasi-shuffle product and the graded
family of noncommutative, weakly nonassociative products.

Structure constants on the M basis:

    mul:     M_A * M_B     = sum over interleavings of A and B with optional
                             cross merges (quasi-shuffle)
    bullet:  M_A o_k 1       = M_{A(k)}
             M_A o_k M_{(m)B} = M_{A(k,m)B} + M_{A(k+m)B}
    hat:     1   o^_k M_B     = M_{(k)B}
             M_{A(m)} o^_k M_B = M_{A(m,k)B} + M_{A(m+k)B}

Both graded products are one dict comprehension where no two term pairs give one
word (see `bullet`), and `convolve` where pairs meet, as in (M[1] + M[1,1]) o_1 (1 + M[1]).

Closed forms on the other bases (two-term rule on Mt, one-term rule on F
for k = 1) are provided separately and agree with the M-basis rules after
conversion; the oracle module checks all of them against direct summation.
"""

from __future__ import annotations

from collections import defaultdict

from quasisym._core import LIGHT, NUMBERED, quasi_shuffle
from quasisym.composition import (
    Composition, elementary_compose, elementary_decompose, positive_index,
)
from quasisym.elements import QSymElem, _m, convolve, monomial, one, reduced


def mul(a: QSymElem, b: QSymElem) -> QSymElem:
    """Ordinary (quasi-shuffle) product; commutative and associative.

    The kernel tables of all term pairs are summed by word number.  Every word
    of the answer weighs at most top = max deg a + max deg b, so a light answer
    has numbers below 2^top: the sum goes into a list of 2^top slots when top <
    LIGHT and the list has at most 4 slots per table entry it receives, else
    into a dict, which a sparse product such as M[20] * M[20] needs."""
    (na, da), (nb, db) = _m(a).form, _m(b).form
    tables = [(x * y, quasi_shuffle(A, B)) for A, x in na.items() for B, y in nb.items()]
    top = max(map(sum, na), default=0) + max(map(sum, nb), default=0)
    if top < LIGHT and 1 << top <= 4 * sum(len(table) for _, table in tables):
        acc = [0] * (1 << top)
    else:
        acc = defaultdict(int)
    for c, table in tables:
        for n, w in table.items():
            acc[n] += c * w
    pairs = enumerate(acc) if type(acc) is list else acc.items()
    return QSymElem._raw("M", *reduced({NUMBERED[n]: v for n, v in pairs if v}, da * db))


def _bullet_words(k: int, A: tuple, B: tuple) -> tuple:
    """The words C of the terms M_C of M_A o_k M_B, each with coefficient 1."""
    if not B:
        return ((*A, k),)
    return (*A, k, *B), (*A, k + B[0], *B[1:])


def _hat_words(k: int, A: tuple, B: tuple) -> tuple:
    """The words of M_A o^_k M_B (merge happens on the left)."""
    if not A:
        return ((k, *B),)
    return (*A, k, *B), (*A[:-1], A[-1] + k, *B)


def _concatenate(left, right, den: int) -> tuple:
    """`convolve` for words; one word per pair means none was written twice."""
    nums = {a + b: x * y for a, x in left.items() for b, y in right.items()}
    if len(nums) == len(left) * len(right):
        return reduced(nums, den)
    return convolve(left, right, den)


def bullet(k: int, a: QSymElem, b: QSymElem) -> QSymElem:
    """The weakly nonassociative product o_k; raises degree by deg a + deg b + k.

    M_A o_k M_B is M_A followed by 1 o_k M_B, whose words for distinct B differ;
    for a homogeneous, the prefix of weight deg a tells the pairs apart."""
    k, (na, da), (nb, db) = positive_index(k, "product index"), _m(a).form, _m(b).form
    unit = {C: y for B, y in nb.items() for C in _bullet_words(k, (), B)}
    return QSymElem._raw("M", *_concatenate(na, unit, da * db))


def hat_bullet(k: int, a: QSymElem, b: QSymElem) -> QSymElem:
    """The mirror product o^_k: reverse of o_k under M_C -> M_{reverse(C)}.

    M_A o^_k M_B is M_A o^_k 1, whose words for distinct A differ, followed by M_B;
    for b homogeneous, the suffix of weight deg b tells the pairs apart."""
    k, (na, da), (nb, db) = positive_index(k, "product index"), _m(a).form, _m(b).form
    unit = {C: x for A, x in na.items() for C in _hat_words(k, A, ())}
    return QSymElem._raw("M", *_concatenate(unit, nb, da * db))


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
    m = _m(a)
    return QSymElem._raw("M", {c[::-1]: v for c, v in m.nums.items()}, m.den)


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
        return monomial("Mt", (k,) + right)
    return QSymElem("Mt", {left + (k,) + right: 1, left[:-1] + (left[-1] + k,) + right: -1})


def bullet_F(A, right) -> QSymElem:
    """F_A o_1 F_right = F_{A (m+1) B} where right = (m)B is nonempty.

    The one-term rule holds for o_1 only; other k route through the M basis.
    """
    A, right = Composition(A), Composition(right)
    if not right:
        raise ValueError("the F-basis rule needs a nonempty right composition")
    return monomial("F", A + (right[0] + 1,) + right[1:])


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
