"""Ground truth by direct summation over a finite ordered alphabet.

Every basis element and every graded product has a defining summation over
chains of indices; this module evaluates those summations literally,
bypassing all structure constants, into sparse `Polynomial`s to compare
results.  Every monomial of M_C determines C, not only its leading one:
its nonzero exponents, read in variable order, are C.  So the expansion of
an M-basis element is a disjoint union of its terms' monomial sets, and
distinct compositions of length <= N have independent expansions in N
variables; comparing expansions at N >= total degree decides equality in
QSym (lengths never exceed weights).

Inside, a monomial is one packed int (`quasisym._core`): `chain_monomials`
emits them, a product adds them, and `nums` and `form` show them.  Exponent
tuples appear only at the boundary: the constructor, `.terms` and printing.

The KP family is certified by counting instead (`kp_counts_agree`, its
verdict memoized per (m, n, N)): each coefficient of both sides, one monomial
at a time, from the definitions of h and o_1 alone, with no polynomial built.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache, partial
from itertools import accumulate

from quasisym._core import LIMIT, W, chain_monomials, check_fields, pack, unpack
from quasisym.composition import positive_index
from quasisym.elements import QSymElem, Sparse, _m, bilinear, convolve, linear, reduced


class Polynomial(Sparse):
    """Sparse exact-rational polynomial in n ordered variables.

    Keys are packed monomials, shown by `.terms` as exponent tuples of
    length n; zero coefficients are never stored.
    """

    __slots__ = ()
    n = Sparse.space  # the space slot, read under its own name
    _spaces = "variable counts"

    def __init__(self, n: int, terms=None):
        Sparse.__init__(self, terms, positive_index(n, "variable count", least=0))

    def _key(self, mono) -> int:
        return pack(exponent_vector(mono, self.n))

    def _wrap(self, key) -> tuple:
        return unpack(key, self.space)

    def _unwrap(self, mono):  # a tuple no key shows as stays itself: no int key equals it
        return pack(mono) if len(mono) == self.space and all(0 <= e < LIMIT for e in mono) else mono

    def _product(self, other):
        """Exponent vectors add, and so do packed keys: a pair of monomials
        costs one int addition and one numerator product."""
        nums, den = convolve(self.nums, other.nums, self.den * other.den)
        return self._raw(self.space, check_fields(nums, self.space), den)

    def set_last_to_zero(self) -> "Polynomial":
        """The polynomial with its last variable 0, over one variable fewer;
        for a `QssPoly` that is y_N = 0, and the result is a plain `Polynomial`."""
        n = positive_index(self.space - 1, "variable count", least=0)
        return Polynomial._raw(n, *reduced(
            {m: c for m, c in self.nums.items() if not m >> W * n}, self.den))

    def _order(self, key):
        # graded order, x1-dominant monomials first within a degree
        mono = unpack(key, self.space)
        return sum(mono), tuple(-e for e in mono)

    def _atom(self, key) -> str:
        return monomial_text(x=unpack(key, self.space))


def exponent_vector(mono, n: int) -> tuple:
    """mono as a tuple of n exponents, each an int in 0..LIMIT-1."""
    mono = tuple(positive_index(e, "exponent", least=0) for e in mono)
    if len(mono) != n or max(mono, default=0) >= LIMIT:
        raise ValueError(f"bad exponent vector {mono!r} for {n} variables: "
                         f"each exponent must be below {LIMIT}")
    return mono


def monomial_text(**alphabets) -> str:
    """``x1^2*x3*y2`` for x=(2, 0, 1), y=(0, 1, 0); "1" for no variable."""
    return "*".join(f"{z}{i + 1}" if e == 1 else f"{z}{i + 1}^{e}"
                    for z, exps in alphabets.items() for i, e in enumerate(exps) if e) or "1"


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    return p * q


def poly_equal(p: Polynomial, q: Polynomial) -> bool:
    if p.n != q.n:
        raise ValueError(f"variable counts differ: {p.n} vs {q.n}")
    return p.form == q.form


@lru_cache(maxsize=None)
def _expand_basis(basis: str, n: int, comp: tuple) -> tuple:
    """The monomials of a basis element's defining chain in n variables."""
    if basis == "F":
        # one variable slot per unit of weight, strict across block boundaries
        boundary = set(accumulate(comp[:-1]))
        exps, strict = (1,) * sum(comp), tuple(pos in boundary for pos in range(1, sum(comp)))
    else:
        exps, strict = tuple(comp), (basis == "M",) * max(len(comp) - 1, 0)
    return chain_monomials(exps, strict, n)


def expand(a: QSymElem, n: int) -> Polynomial:
    """Evaluate a in n variables straight from its basis's summation formula."""
    n = positive_index(n, "variable count")
    if a.basis == "M":
        # disjoint monomial sets: no two terms meet, so nothing adds up; but a
        # composition longer than n has no monomial, and the numerators left
        # may share a factor with den
        return Polynomial._raw(n, *reduced(
            {mono: c for comp, c in a.nums.items() for mono in _expand_basis("M", n, comp)},
            a.den))
    return Polynomial._raw(n, *linear(a.form, partial(_expand_basis, a.basis, n)))


def _bullet_chain(k: int, n: int, hat: bool, A: tuple, B: tuple) -> tuple:
    """Monomials of the chain A, k, B: strict inside A and B; o_k is strict
    before the new slot and weak after, o^_k the other way around."""
    strict = [True] * max(len(A) - 1, 0)
    if A:
        strict.append(not hat)
    if B:
        strict.append(hat)
    strict.extend([True] * max(len(B) - 1, 0))
    return chain_monomials((*A, k, *B), tuple(strict), n)


def expand_bullet(k: int, a: QSymElem, b: QSymElem, n: int, hat: bool = False) -> Polynomial:
    """Evaluate a o_k b (or a o^_k b) by its defining chained summation."""
    k, n = positive_index(k, "product index"), positive_index(n, "variable count")
    image = partial(_bullet_chain, k, n, hat)
    return Polynomial._raw(n, *bilinear(_m(a).form, _m(b).form, image))


def certify_equal(a: QSymElem, b: QSymElem) -> bool:
    """Decide a = b in QSym by expanding both at N = max total degree."""
    n = max(a.degree, b.degree, 1)
    return expand(a, n) == expand(b, n)


@lru_cache(maxsize=None)
def h_pair_count(a: int, beta: tuple) -> int:
    """[x^beta] h_a h_b with b = |beta| - a: the ways to split each exponent
    of beta between the two factors, [u^a] prod_i (1 + u + ... + u^beta_i).
    The count depends only on the multiset beta, which callers pass sorted."""
    if not beta:
        return int(a == 0)
    return sum(h_pair_count(a - j, beta[1:]) for j in range(min(a, beta[0]) + 1))


def _insort(exps: tuple, e: int) -> tuple:
    """The sorted nonzero exponents exps with e added (e = 0 adds nothing)."""
    if not e:
        return exps
    i = bisect(exps, e)
    return exps[:i] + (e,) + exps[i:]


@lru_cache(maxsize=None)
def kp_counts_agree(m: int, n: int, nvars: int) -> bool:
    """Whether h_m h_{n+1} - h_{m+1} h_n and S(m, n) - S(n, m), with
    S(m, n) = sum_{k=1}^m h_k o_1 (h_{m-k} h_n), have the same coefficient
    at every monomial x^alpha of degree d = m + n + 1 in nvars variables.

    The chain of h_k o_1 b puts x_1..x_{t-1} in h_k, so x^alpha meets it
    only at the slots t whose prefix degree P_t = alpha_1 + ... + alpha_{t-1}
    is k: [x^alpha] S(m, n) sums, over the slots t with alpha_t >= 1 and
    1 <= P_t <= m, the count of h_{m-P_t} h_n at (alpha_t - 1, alpha_{t+1}, ...).
    The walk fixes alpha from its last variable down, so P_t is the degree
    still to place and each suffix adds its slot's terms once."""
    c = h_pair_count

    def walk(t: int, rest: int, suffix: tuple, rhs: int) -> bool:
        # x_{t+1}.. are fixed: suffix holds their sorted nonzero exponents and
        # rhs their slots' terms; x_1..x_t share the degree rest
        if t == 1 or not rest:  # x_1 takes the rest: alpha is whole
            alpha = _insort(suffix, rest)
            return c(m, alpha) - c(m + 1, alpha) == rhs
        for e in range(rest + 1):  # e = alpha_t, and P_t = rest - e
            p, term = rest - e, 0
            if e and p:
                beta = _insort(suffix, e - 1)
                term = (c(m - p, beta) if p <= m else 0) - (c(n - p, beta) if p <= n else 0)
            if not walk(t - 1, p, _insort(suffix, e), rhs + term):
                return False
        return True

    return walk(nvars, m + n + 1, (), 0)
