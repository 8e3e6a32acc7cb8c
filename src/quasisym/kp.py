"""Symmetric-function generators and the KP identity family.

Power sums are the single-part M elements; the complete homogeneous
function h_n is the sum of M_C over all compositions C of n (the `newton`
suite checks it against Newton's recursion n h_n = sum p_k h_{n-k}).  The
identity family

    h_m h_{n+1} - h_{m+1} h_n
        = sum_{k=1}^m h_k o (h_{m-k} h_n) - sum_{k=1}^n h_k o (h_{n-k} h_m)

(with o the first graded product) vanishes identically in QSym; rendered
through the map sigma sending p_n to -phi_{t_n}, products of power sums
to mixed t-derivatives and o-products to noncommutative juxtaposition, the
(1,2) member becomes the noncommutative KP equation.

Sigma works on two `Sparse` classes: `PowerSums`, a symmetric function
over the power sums keyed by partitions (`p_leaf`, `h_in_p`; `*` merges
the partitions), and `Sigma`, its image keyed by tuples of factors, each
the sorted t-indices of one phi (`sigma`, `sigma_times`; `*` juxtaposes).
Sigma follows how an identity is written, term by term, and never its
value in QSym: lhs - rhs is 0 in QSym, yet its sigma image is the
hierarchy equation, so two ways of writing one element can render
differently (the difference is a consequence of the hierarchy).  That is
why `kp_sigma` and `kp_classical_sigma` compose the maps along the written
identity instead of taking QSym elements.

The family is made of products h_m h_n, which `h_product` builds without
the pairwise quasi-shuffle table of `mul`.  Every word of M_C M_D starts
with C's first part, D's first part or their sum, and removing the first
part i from all compositions of m leaves all compositions of m - i, so

    h_m h_n = sum (i+j).(h_{m-i} h_{n-j})  over 0 <= i <= m, 0 <= j <= n, i + j > 0,

where (s).X puts the part s in front of every word of X, h_0 = 1, and j = 0
(i = 0) stands for a word that starts with C's (D's) first part alone.
That costs O(m n) passes over the smaller products instead of one
quasi-shuffle per pair of the 2^(m-1) 2^(n-1) composition pairs.

A family run computes each term once.  With S(m, n) the written sum
sum_{k=1}^m h_k o (h_{m-k} h_n), member (m, n) has the right side
S(m, n) - S(n, m), so member (n, m) is member (m, n) negated term by term
and the diagonal members subtract a sum from itself.  `_bullet_sum` keeps
S(m, n) per ordered pair, with read-only numerators as the entry is
shared, and `oracle.kp_counts_agree` keeps the verdict per unordered
member and N, which it counts from the definitions of h and o_1 alone,
monomial by monomial: it builds no polynomial and calls neither
`h_product` nor `bullet`, so it checks them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache
from types import MappingProxyType

from quasisym.composition import Composition, canonical_key, compositions_of, positive_index
from quasisym.elements import (
    QSymElem, Sparse, bilinear, convolve, linear, monomial, one, scale, scaled, sum_forms,
)
from quasisym.products import bullet, mul


def power_sum(n: int) -> QSymElem:
    """p_n, the n-th power sum."""
    return monomial("M", (positive_index(n, "power sum index"),))


def complete_h(n: int) -> QSymElem:
    """h_n, the sum of M_C over all compositions C of n; a new element each call."""
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
        return tuple((c, 1) for c in compositions_of(n))
    acc = defaultdict(int)
    for i in range(m + 1):
        for j in range(not i, n + 1):  # i + j > 0
            for w, x in _h_words(m - i, n - j):
                acc[(i + j,) + w] += x
    return tuple(acc.items())


def h_product(m: int, n: int) -> QSymElem:
    """h_m h_n, by the first-part recursion of `_h_words` instead of `mul`."""
    m = positive_index(m, "complete homogeneous index", least=0)
    n = positive_index(n, "complete homogeneous index", least=0)
    return QSymElem._raw("M", dict(_h_words(m, n)))


def partitions_of(n: int) -> list:
    """Partitions of n as weakly decreasing compositions, in lexicographic order."""
    return sorted(
        c for c in compositions_of(n) if all(c[i] >= c[i + 1] for i in range(len(c) - 1)))


def elementary_schur(n: int) -> dict:
    """Coefficients of the n-th elementary Schur polynomial in t_1, t_2, ...

    Read off exp(sum_k zeta^k t_k): the coefficient of prod t_k^{m_k} with
    sum k m_k = n is 1 / prod m_k!.  Substituting t_k = p_k / k recovers
    h_n (equivalently h_n = sum over partitions of p_lambda / z_lambda).
    """
    from fractions import Fraction

    out = {}
    for lam in partitions_of(positive_index(n, "elementary Schur index", least=0)):
        coeff = Fraction(1)
        for part in set(lam):
            coeff /= math.factorial(lam.count(part))
        out[lam] = coeff
    return out


def schur_substitution(n: int) -> QSymElem:
    """s_n(p_1, p_2/2, p_3/3, ...) multiplied out in QSym."""
    from fractions import Fraction

    acc = QSymElem("M", {})
    for lam, coeff in elementary_schur(n).items():
        term = one()
        for part in lam:
            term = mul(term, scale(Fraction(1, part), power_sum(part)))
        acc = acc + scale(coeff, term)
    return acc


@lru_cache(maxsize=None)
def _bullet_sum(m: int, n: int) -> tuple:
    """The form of S(m, n) = sum_{k=1}^m h_k o (h_{m-k} h_n), per ordered (m, n)."""
    nums, den = sum_forms(
        *(bullet(1, complete_h(k), h_product(m - k, n)).form for k in range(1, m + 1)))
    return MappingProxyType(nums), den  # the cached entry is shared


def kp_identity(m: int, n: int):
    """Both sides of the (m, n) identity; their difference is 0 in QSym."""
    m, n = positive_index(m, "identity index m"), positive_index(n, "identity index n")
    lhs = h_product(m, n + 1) - h_product(m + 1, n)
    rhs = sum_forms(_bullet_sum(m, n), scaled(-1, _bullet_sum(n, m)))
    return lhs, QSymElem._raw("M", *rhs)


def certify_kp(m: int, n: int, nvars: int) -> bool:
    """Count both sides of the (m, n) identity monomial by monomial in nvars
    variables, from the definitions of h and o_1 alone.

    nvars must reach the identity's degree m + n + 1: below it, equal
    expansions do not decide equality in QSym.  Member (n, m) is member
    (m, n) negated term by term, so the two share one verdict."""
    m, n = positive_index(m, "identity index m"), positive_index(n, "identity index n")
    positive_index(nvars, "variable count", least=m + n + 1)
    # imported here, so that only `kp --certify` of the KP commands loads the oracle
    from quasisym.oracle import kp_counts_agree

    return kp_counts_agree(min(m, n), max(m, n), nvars)


def kp_classical_identity():
    """The KP identity 4 p1 p3 - 3 p2^2 - p1^4 = -6 p1 (p1 o p1) + 6 (p1 o p2 - p2 o p1)."""
    p1, p2, p3 = power_sum(1), power_sum(2), power_sum(3)
    p1sq = mul(p1, p1)
    lhs = 4 * mul(p1, p3) - 3 * mul(p2, p2) - mul(p1sq, p1sq)
    rhs = -6 * mul(p1, bullet(1, p1, p1)) + 6 * (bullet(1, p1, p2) - bullet(1, p2, p1))
    return lhs, rhs


# -- sigma: rendering identities as hierarchy equations --------------------

class PowerSums(Sparse):
    """A symmetric function over the power sums: keys are partitions, each a
    nonempty weakly decreasing tuple of parts (sigma is undefined on constants)."""

    __slots__ = ()

    @staticmethod
    def _key(parts) -> tuple:
        if not parts:
            raise ValueError("sigma is undefined on constants: partition must be nonempty")
        return tuple(sorted((positive_index(p, "partition part") for p in parts), reverse=True))

    def _product(self, other):  # the ordinary product: partitions merge
        return self._raw(None, *bilinear(self.form, other.form, lambda a, b: (
            tuple(sorted(a + b, reverse=True)),)))

    _order = staticmethod(canonical_key)
    _atom = staticmethod(lambda lam: f"p{Composition(lam)!r}")


class Sigma(Sparse):
    """A sigma image: each key is a tuple of factors, each factor the sorted
    t-indices of one phi; the product juxtaposes, order kept."""

    __slots__ = ()

    @staticmethod
    def _key(factors) -> tuple:
        return tuple(PowerSums._key(f)[::-1] for f in factors)

    def _product(self, other):
        return self._raw(None, *convolve(self.nums, other.nums, self.den * other.den))

    @staticmethod
    def _order(factors):
        return len(factors), tuple((len(f), f) for f in factors)

    @staticmethod
    def _atom(factors) -> str:
        return "*".join("phi_{" + ",".join(f"t{i}" for i in f) + "}" for f in factors) or "1"


def p_leaf(coeff, parts) -> PowerSums:
    """coeff * p_lambda, lambda the nonempty multiset of parts."""
    return PowerSums({tuple(parts): coeff})


def h_in_p(n: int) -> PowerSums:
    """h_n over the power sums: p_lambda with coefficient 1 / z_lambda.

    n >= 1: h_0 has nonzero counit, so it appears only inside ordinary products.
    z_lambda is the product of the parts and of m_k! for each part k of
    multiplicity m_k.  Over den, the lcm of the z_lambda, the numerators
    den // z_lambda share no prime p: den / p would be a smaller multiple.
    """
    z = {tuple(lam): math.prod(lam) * math.prod(math.factorial(lam.count(k)) for k in set(lam))
         for lam in partitions_of(positive_index(n, "power-sum expansion index"))}
    den = math.lcm(*z.values())
    return PowerSums._raw(None, {lam: den // zl for lam, zl in z.items()}, den)


def sigma(x: PowerSums) -> Sigma:
    """c p_lambda -> -c phi_{t_lambda}: one factor, the parts in increasing order."""
    return Sigma._raw(None, {(lam[::-1],): -v for lam, v in x.nums.items()}, x.den)


def sigma_times(n: int, f: Sigma) -> Sigma:
    """sigma(p_n a): the t_n-derivative of sigma(a), by Leibniz across the factors."""
    n = positive_index(n, "derivative index")
    return Sigma._raw(None, *linear(f.form, lambda fs: tuple(
        fs[:i] + (tuple(sorted(fs[i] + (n,))),) + fs[i + 1:] for i in range(len(fs)))))


def sigma_render(image: Sigma, normalize: bool = False) -> str:
    """Deterministic text of a sigma image; with normalize, of its numerators
    alone, signed so that the first term is positive."""
    if normalize and image:
        first = image.nums[min(image.nums, key=Sigma._order)]
        image = (image.den if first > 0 else -image.den) * image
    return repr(image)


def kp_sigma(m: int, n: int) -> Sigma:
    """sigma of the (m, n) identity's lhs - rhs, written in its h-form."""
    m, n = positive_index(m, "identity index m"), positive_index(n, "identity index n")

    def h_h(a: int, b: int) -> PowerSums:  # h_a h_b, with h_0 = 1
        return h_in_p(a) * h_in_p(b) if a else h_in_p(b)

    def bullets(a: int, b: int) -> Sigma:  # the sum of h_k o (h_{a-k} h_b) for k = 1..a
        return sum((sigma(h_in_p(k)) * sigma(h_h(a - k, b)) for k in range(1, a + 1)), Sigma())

    return sigma(h_h(m, n + 1) - h_h(m + 1, n)) - bullets(m, n) + bullets(n, m)


def kp_classical_sigma() -> Sigma:
    """sigma of 4 p1 p3 - 3 p2^2 - p1^4 + 6 p1 (p1 o p1) - 6 (p1 o p2) + 6 (p2 o p1)."""
    p1, p2 = sigma(p_leaf(1, (1,))), sigma(p_leaf(1, (2,)))
    lhs = PowerSums({(3, 1): 4, (2, 2): -3, (1, 1, 1, 1): -1})
    return sigma(lhs) + 6 * sigma_times(1, p1 * p1) - 6 * (p1 * p2) + 6 * (p2 * p1)
