"""The KP family counted from its defining sums, against the library's answer.

The coefficient of the packed monomial x_1^{c_1} ... x_l^{c_l} in a QSym
element is its M_C coefficient.  So counting each side of the (m, n)
identity at x^C, for every composition C of m + n + 1, checks each side of
`kp_identity(m, n)` on its own, independently of the number of variables:
a fault in one side cannot hide behind the same fault in the other.  The
counts read only `oracle.h_pair_count`, the coefficients of h_a h_b.
"""

import pytest

from quasisym import _core, kp, oracle
from quasisym.composition import compositions_of
from quasisym.elements import QSymElem
from quasisym.kp import certify_kp, kp_identity
from quasisym.products import bullet

MEMBERS = [(m, n) for m in range(1, 6) for n in range(m + 1, 12 - m)]  # m < n, m + n <= 11


@pytest.fixture(autouse=True)
def cold_memos():
    _core.clear_caches()
    yield
    _core.clear_caches()


def counted(m, n, word):
    """lhs and rhs of the (m, n) identity at x^word, word a composition:
    h_a h_b by its count, and h_k o_1 b through the slots t of x_t whose
    prefix degree P_t is k."""
    c = oracle.h_pair_count
    alpha = tuple(sorted(word))
    lhs, rhs, p = c(m, alpha) - c(m + 1, alpha), 0, 0
    for t, e in enumerate(word):
        if p:
            beta = tuple(sorted(filter(None, (e - 1, *word[t + 1:]))))
            rhs += (c(m - p, beta) if p <= m else 0) - (c(n - p, beta) if p <= n else 0)
        p += e
    return lhs, rhs


def wrong_sides(m, n):
    """The sides ("lhs", "rhs") of kp_identity(m, n) and of its swapped member
    (n, m) whose M coefficients differ from the counts somewhere."""
    wrong = set()
    for member, sign in (((m, n), 1), ((n, m), -1)):  # member (n, m) is (m, n) negated
        sides = kp_identity(*member)
        for word in compositions_of(m + n + 1):
            for name, side, want in zip(("lhs", "rhs"), sides, counted(m, n, word)):
                if side.nums.get(word, 0) != sign * want * side.den:
                    wrong.add((member, name))
    return wrong


def test_each_side_of_every_off_diagonal_member_is_its_count():
    assert len(MEMBERS) == 25  # and their 25 swapped members
    for m, n in MEMBERS:
        assert wrong_sides(m, n) == set(), (m, n)


def test_an_extra_bullet_term_shows_on_the_right_side_alone(monkeypatch):
    def one_term_too_many(k, a, b):
        return bullet(k, a, b) + QSymElem("M", {(1,) * (k + a.degree + b.degree): 1})

    monkeypatch.setattr(kp, "bullet", one_term_too_many)
    assert wrong_sides(2, 3) == {((2, 3), "rhs"), ((3, 2), "rhs")}


def test_a_wrong_h2_h3_shows_on_the_vacuous_diagonal_member(monkeypatch):
    # h_3 h_2 is read from the memo built before the fault, so only the
    # product h_2 h_3 as called is one word too heavy; the (2, 2) member's
    # sides are both 0 when h_2 h_3 = h_3 h_2
    true_words = kp._h_words
    true_words(3, 2)

    def heavier(m, n):
        words = true_words(m, n)
        if (m, n) != (2, 3):
            return words
        (word, x), *rest = words
        return ((word, x + 1), *rest)

    monkeypatch.setattr(kp, "_h_words", heavier)
    lhs, rhs = kp_identity(2, 2)
    assert rhs == QSymElem("M", {})
    wrong = [w for w in compositions_of(5) if lhs.nums.get(w, 0) != counted(2, 2, w)[0] * lhs.den]
    assert wrong == [true_words(2, 3)[0][0]]


def test_certification_calls_no_polynomial_product_or_library_structure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the count must not call this")

    for module, name in ((oracle, "poly_mul"), (oracle, "expand"), (oracle, "expand_bullet"),
                         (oracle, "chain_monomials"), (_core, "chain_monomials"),
                         (kp, "h_product"), (kp, "complete_h"), (kp, "bullet"), (kp, "mul")):
        monkeypatch.setattr(module, name, refuse)
    assert certify_kp(2, 3, 8) is certify_kp(3, 3, 7) is True
