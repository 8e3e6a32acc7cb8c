"""Ground truth by direct summation over a finite ordered alphabet.

Every basis element and every graded product has a defining summation over
chains of indices; this module evaluates those summations literally,
bypassing all structure constants, into sparse `Polynomial`s to compare
results.  Distinct compositions of length <= N have disjoint leading
monomials in N variables, so comparing expansions at N >= total degree
decides equality in QSym (lengths never exceed weights).
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate
from operator import mul

from quasisym._core import chain_monomials
from quasisym.composition import positive_index
from quasisym.elements import QSymElem, Sparse, _m, bilinear, linear


class Polynomial(Sparse):
    """Sparse exact-rational polynomial in n ordered variables.

    Keys are dense exponent tuples of length n; zero coefficients are
    never stored.
    """

    __slots__ = ()
    n = Sparse.space  # the space slot, read under its own name
    _spaces = "variable counts"

    def __init__(self, n: int, terms=None):
        Sparse.__init__(self, positive_index(n, "variable count", least=0), terms)

    def _key(self, mono) -> tuple:
        return exponent_vector(mono, self.n)

    def _product(self, other):
        """Exponent vectors add.  Packed as the base-`base` digits of one int,
        with `base` above every exponent of the product, each pair of
        monomials costs one int addition."""
        base = 1 + _top(self) + _top(other)
        powers = [base ** i for i in range(self.n)]

        def packed(p):
            return {sum(map(mul, mono, powers)): c for mono, c in p.terms.items()}

        sums = bilinear(packed(self), packed(other), lambda u, v: (u + v,))
        out = {}
        for v, c in sums.items():
            mono = []
            for _ in powers:
                v, e = divmod(v, base)
                mono.append(e)
            out[tuple(mono)] = c
        return Polynomial._raw(self.n, out)

    def set_last_to_zero(self) -> "Polynomial":
        """The polynomial with x_n = 0, over n-1 variables."""
        n = positive_index(self.n - 1, "variable count", least=0)
        return Polynomial._raw(n, {m[:-1]: c for m, c in self.terms.items() if m[-1] == 0})

    @staticmethod
    def _order(mono):
        # graded order, x1-dominant monomials first within a degree
        return sum(mono), tuple(-e for e in mono)

    @staticmethod
    def _atom(mono) -> str:
        return monomial_text(x=mono)


def exponent_vector(mono, n: int) -> tuple:
    """mono as a tuple of n exponents, each an int >= 0."""
    mono = tuple(positive_index(e, "exponent", least=0) for e in mono)
    if len(mono) != n:
        raise ValueError(f"bad exponent vector {mono!r} for {n} variables")
    return mono


def monomial_text(**alphabets) -> str:
    """``x1^2*x3*y2`` for x=(2, 0, 1), y=(0, 1, 0); "1" for no variable."""
    return "*".join(f"{z}{i + 1}" if e == 1 else f"{z}{i + 1}^{e}"
                    for z, exps in alphabets.items() for i, e in enumerate(exps) if e) or "1"


def _top(p: Polynomial) -> int:
    """The largest exponent in p."""
    return max((max(mono, default=0) for mono in p.terms), default=0)


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    return p * q


def poly_equal(p: Polynomial, q: Polynomial) -> bool:
    if p.n != q.n:
        raise ValueError(f"variable counts differ: {p.n} vs {q.n}")
    return p.terms == q.terms


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
    image = partial(_expand_basis, a.basis, positive_index(n, "variable count"))
    return Polynomial._raw(n, linear(a.terms, image))


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
    return Polynomial._raw(n, bilinear(_m(a).terms, _m(b).terms, image))


def certify_equal(a: QSymElem, b: QSymElem) -> bool:
    """Decide a = b in QSym by expanding both at N = max total degree."""
    n = max(a.degree, b.degree, 1)
    return expand(a, n) == expand(b, n)
