"""Property tests on random rational combinations in mixed bases.

Elements mix the M, Mt and F bases, carry coefficients with denominators,
and some are sums that cancel.  Every operation is checked against the
summation oracle (which never uses structure constants), against its
scalar multiples, and for the stored form: nonzero int numerators over one
denominator coprime to them all, shown by `.terms` as an int exactly when
integral.  Seeds are derandomized, so runs are repeatable.
"""

from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd

from hypothesis import given, settings, strategies as st

from quasisym._core import unpack
from quasisym.composition import Composition, canonical_key
from quasisym.elements import QSymElem, bilinear, counit, format_ratios, monomial, one, to_basis
from quasisym.hopf import (
    TensorElem, antipode, antipode_axiom_left, antipode_axiom_right, coproduct, m_k,
    tensor_bullet_left, tensor_bullet_right, tensor_mul, tensor_of,
)
from quasisym.oracle import Polynomial, _expand_basis, expand, expand_bullet
from quasisym.products import _bullet_words, _hat_words, bullet, hat_bullet, mul, reverse_map
from quasisym.qss import QssPoly, qss_bullet

# Oracle variables.  Expansions in N variables decide equality for
# compositions of length <= N; elements here have weight <= 3, so products
# have length <= 6 (mul) and <= 7 (o_k and o^_k).
N = 7
SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)

coefficients = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 1, 2, 3, 4, 6))
)
compositions = st.lists(st.integers(1, 3), max_size=3).filter(lambda c: sum(c) <= 3).map(tuple)


@st.composite
def elements(draw):
    """A rational combination in a random basis; about a third of the time
    it is a + b - b', with b' equal to b but in another basis, so the sum
    cancels inside __add__."""
    basis = draw(st.sampled_from(("M", "Mt", "F")))
    a = QSymElem(basis, draw(st.dictionaries(compositions, coefficients, max_size=4)))
    if draw(st.integers(0, 2)):
        return a
    b = QSymElem(draw(st.sampled_from(("M", "Mt", "F"))),
                 draw(st.dictionaries(compositions, coefficients, min_size=1, max_size=3)))
    return a + b - to_basis(b, draw(st.sampled_from(("M", "Mt", "F"))))


scalars = st.one_of(coefficients, st.integers(-3, 3))

exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
polynomials = st.dictionaries(exponents, coefficients, max_size=4).map(
    lambda terms: Polynomial(2, terms))
qss_polynomials = st.dictionaries(st.tuples(exponents, exponents), coefficients, max_size=4).map(
    lambda terms: QssPoly(2, terms))


def assert_stored(e):
    """e's form: nonzero int numerators over den >= 1 coprime to them all, den 1
    exactly when every coefficient is integral; .terms shows nums / den, each
    an int when integral and a Fraction otherwise."""
    nums, den = e.nums, e.den
    assert type(den) is int and den >= 1
    assert all(type(v) is int and v != 0 for v in nums.values())
    assert gcd(den, *nums.values()) == 1
    assert (den == 1) == all(v % den == 0 for v in nums.values())
    assert len(e.terms) == len(nums)
    assert [e.terms[k] for k in e.terms] == [Fraction(v, den) for v in nums.values()]
    for v in e.terms.values():
        assert type(v) is (int if v.denominator == 1 else Fraction)


def m_coefficients(a, n):
    """M-basis coefficients of a read off its oracle expansion at n >= degree:
    the coefficient of M_C is that of x_1^c_1 ... x_l^c_l."""
    out = {}
    for mono, coeff in expand(a, n).terms.items():
        length = next((i for i, e in enumerate(mono) if e == 0), n)
        if not any(mono[length:]):
            out[mono[:length]] = coeff
    return out


@SETTINGS
@given(elements(), elements())
def test_mul_matches_the_oracle(a, b):
    out = mul(a, b)
    assert_stored(out)
    product = expand(a, N) * expand(b, N)
    assert_stored(product)
    assert expand(out, N) == product


def expand_m_by_adding(a, n):
    """The expansion of an M-basis element in n variables, adding the
    Fraction coefficients of its terms' monomials one by one."""
    acc = {}
    for comp, coeff in a.terms.items():
        for mono in map(unpack, _expand_basis("M", n, comp), repeat(n)):
            acc[mono] = acc.get(mono, 0) + coeff
    return Polynomial(n, acc)


@SETTINGS
@given(elements(), elements())
def test_m_expansion_is_the_sum_of_its_terms(a, b):
    # N below the length of a composition drops its terms, which may leave a
    # common factor to divide out
    for m in (to_basis(a + b, "M"), to_basis(a + b, "M") - to_basis(b, "F")):
        assert m.basis == "M"
        for n in range(1, max(m.degree, 0) + 2):
            p = expand(m, n)
            assert p == expand_m_by_adding(m, n)
            assert_stored(p)


@SETTINGS
@given(elements(), elements(), st.integers(1, 3))
def test_bullet_and_hat_match_the_oracle(a, b, k):
    for product, hat in ((bullet, False), (hat_bullet, True)):
        out = product(k, a, b)
        assert_stored(out)
        direct = expand_bullet(k, a, b, N, hat=hat)
        assert_stored(direct)
        assert expand(out, N) == direct


def pairwise(words, k, a, b):
    """A graded product summed over every pair of M terms, words(k, A, B) each:
    the reference for `bullet` and `hat_bullet`, which concatenate a unit form."""
    left, right = to_basis(a, "M").form, to_basis(b, "M").form
    return QSymElem._raw("M", *bilinear(left, right, partial(words, k)))


@SETTINGS
@given(elements(), elements(), coefficients, coefficients, coefficients, st.integers(1, 3))
def test_bullet_and_hat_match_the_pair_loop(a, b, r, q, s, k):
    """Operands of mixed weights that hold the words [] and [k].  In both
    products the coefficient of M[k,k] is a[] b[k] + a[k] b[] (M-basis
    coefficients), set here to cancel: two concatenations collide at 0."""
    x, y = to_basis(a, "M").terms, to_basis(b, "M").terms
    a += (r - x.get((), 0)) * one() + (q - x.get((k,), 0)) * monomial("M", (k,))
    b += (s - y.get((), 0)) * one() + (-q * s / r - y.get((k,), 0)) * monomial("M", (k,))
    for product, words in ((bullet, _bullet_words), (hat_bullet, _hat_words)):
        out = product(k, a, b)
        assert_stored(out)
        assert (k, k) not in out.terms
        assert out == pairwise(words, k, a, b)


@SETTINGS
@given(elements(), st.sampled_from(("M", "Mt", "F")))
def test_to_basis_matches_the_oracle_and_round_trips(a, target):
    out = to_basis(a, target)
    assert out.basis == target
    assert_stored(out)
    assert_stored(expand(out, N))
    assert expand(out, N) == expand(a, N)
    assert to_basis(out, a.basis).terms == a.terms


@SETTINGS
@given(elements())
def test_coproduct_is_evaluation_on_two_alphabets(a):
    """Delta(a)(x; y) = a(x_1, .., x_n, y_1, .., y_n)."""
    n = 2
    out = coproduct(a)
    assert_stored(out)
    acc = {}
    for (left, right), coeff in out.terms.items():
        for ml, cl in expand(monomial("M", left), n).terms.items():
            for mr, cr in expand(monomial("M", right), n).terms.items():
                acc[ml + mr] = acc.get(ml + mr, 0) + coeff * cl * cr
    assert Polynomial(2 * n, acc) == expand(a, 2 * n)


@SETTINGS
@given(elements())
def test_antipode_matches_the_oracle(a):
    """S(M_C) = (-1)^len(C) Mt_reverse(C), with a's M coefficients from the oracle."""
    out = antipode(a)
    assert_stored(out)
    image = QSymElem("Mt", {
        Composition(c[::-1]): (-1) ** len(c) * v for c, v in m_coefficients(a, 3).items()
    })
    assert expand(out, N) == expand(image, N)


@SETTINGS
@given(elements(), elements(), elements(), scalars, scalars, st.integers(1, 2))
def test_bilinearity_with_denominators(a, b, c, r, s, k):
    assert mul(r * a + c, s * b) == r * s * mul(a, b) + s * mul(c, b)
    assert bullet(k, r * a, s * b + c) == r * s * bullet(k, a, b) + r * bullet(k, a, c)
    assert hat_bullet(k, r * a, s * b) == r * s * hat_bullet(k, a, b)
    for target in ("M", "Mt", "F"):
        assert to_basis(r * a + c, target) == r * to_basis(a, target) + to_basis(c, target)
    assert coproduct(r * a + c) == r * coproduct(a) + coproduct(c)
    assert antipode(r * a + c) == r * antipode(a) + antipode(c)
    for e in (r * a, r * a + c, a - a, -a, coproduct(r * a) - coproduct(c)):
        assert_stored(e)
    assert not a - a and (a - a).den == 1


@SETTINGS
@given(polynomials, polynomials, scalars)
def test_polynomials_keep_the_canonical_form(p, q, r):
    assert (p + q) - q == p
    assert not p - p and (p - p).den == 1
    for e in (p + q, p - q, r * p, p * q, (p * q).set_last_to_zero()):
        assert_stored(e)


@SETTINGS
@given(qss_polynomials, qss_polynomials, scalars, st.integers(1, 2))
def test_two_alphabet_polynomials_keep_the_canonical_form(p, q, r, k):
    assert (p + q) - q == p
    assert not p - p and (p - p).den == 1
    for e in (p + q, r * p, p * q, qss_bullet(k, p, q)):
        assert_stored(e)


# -- operator laws on general elements ---------------------------------------

@SETTINGS
@given(elements(), elements(), st.integers(1, 2))
def test_coproduct_is_a_derivation_of_bullet(a, b, n):
    """Delta(a o_n b) = Delta(a) o_n b + a o_n Delta(b)."""
    right, left = tensor_bullet_right(coproduct(a), n, b), tensor_bullet_left(a, n, coproduct(b))
    assert_stored(right)
    assert_stored(left)
    assert coproduct(bullet(n, a, b)) == right + left


@SETTINGS
@given(elements())
def test_antipode_axioms(a):
    target = counit(a) * one()
    left = antipode_axiom_left(a)
    assert_stored(left)
    assert left == target
    assert antipode_axiom_right(a) == target


@SETTINGS
@given(elements(), elements(), st.integers(1, 2))
def test_antipode_reverses_bullet(a, b, n):
    """S(a o_n b) = -S(b) o_n S(a)."""
    assert antipode(bullet(n, a, b)) == -bullet(n, antipode(b), antipode(a))


@SETTINGS
@given(elements(), elements(), elements(), st.integers(1, 2))
def test_distributivity(a, b, c, m):
    """c (a o_m b) = m_m(Delta(c) (a (x) b))."""
    spread = tensor_mul(coproduct(c), tensor_of(a, b))
    for e in (tensor_of(a, b), spread, m_k(m, spread)):
        assert_stored(e)
    assert mul(c, bullet(m, a, b)) == m_k(m, spread)


# -- the boundary contract ---------------------------------------------------

def word_atom(basis, c):
    return f"{basis}{Composition.__repr__(c)}" if c else "1"


def assert_shown_as_compositions(e):
    """Whatever form e stores its keys in, .terms shows Compositions (pairs of
    them for a tensor), and printing, degree and equality agree with it."""
    shown = dict(e.terms)
    assert e.terms == shown
    if type(e) is TensorElem:
        assert all(type(c) is Composition for pair in shown for c in pair)
        order = sorted(shown, key=lambda ab: (canonical_key(ab[0]), canonical_key(ab[1])))
        text = [(shown[ab], " (x) ".join(word_atom("M", c) for c in ab)) for ab in order]
        assert e == TensorElem(shown)
    else:
        assert all(type(c) is Composition for c in shown)
        text = [(shown[c], word_atom(e.basis, c)) for c in sorted(shown, key=canonical_key)]
        assert e.degree == max((c.weight for c in shown), default=0)
        assert e == QSymElem(e.basis, shown)
    assert repr(e) == format_ratios((c.numerator, c.denominator, atom) for c, atom in text)


@SETTINGS
@given(elements(), elements(), st.integers(1, 2), st.sampled_from(("M", "Mt", "F")))
def test_every_result_shows_composition_keys(a, b, k, target):
    t = coproduct(a)
    for e in (mul(a, b), bullet(k, a, b), hat_bullet(k, a, b), to_basis(a, target), t,
              antipode(a), reverse_map(a), tensor_of(a, b), tensor_bullet_right(t, k, b),
              tensor_bullet_left(b, k, t)):
        assert_shown_as_compositions(e)


def test_the_key_wrap_binds_to_nothing_through_an_instance():
    """`.terms` reads `_wrap` through the element, so the wrap must be a static
    method: a bare `partial` binds there from Python 3.14 and warns in 3.13."""
    e = monomial("M", (1, 2))
    wrap = vars(QSymElem)["_wrap"].__get__(e, QSymElem)
    assert type(wrap((1, 2))) is Composition and wrap((1, 2)) == (1, 2)
    assert all(type(c) is Composition for c in e.terms)
