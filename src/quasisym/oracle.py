"""Ground truth by direct summation over a finite ordered alphabet.

Every basis element and every graded product has a defining summation over
chains of indices; this module evaluates those summations literally,
bypassing all structure constants, and provides exact sparse polynomial
arithmetic to compare results.  Distinct compositions of length <= N have
disjoint leading monomials in N variables, so comparing expansions at
N >= total degree decides equality in QSym (lengths never exceed weights).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from operator import add

from quasisym._core import chain_monomials
from quasisym.elements import (
    QSymElem, coefficient, format_coeff, numerators, scaled_terms, stored, sum_terms, to_basis,
)


class Polynomial:
    """Sparse exact-rational polynomial in n ordered variables.

    Keys are dense exponent tuples of length n; zero coefficients are
    never stored.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise ValueError("number of variables must be nonnegative")
        object.__setattr__(self, "n", n)
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = coefficient(coeff)
            if not coeff:
                continue
            mono = tuple(mono)
            if len(mono) != n or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono!r} for {n} variables")
            clean[mono] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "Polynomial":
        """Exponent vectors the library built and stored coefficients, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial._trusted(self.n, sum_terms(self.terms, other.terms))

    def __neg__(self):
        return Polynomial._trusted(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial._trusted(self.n, scaled_terms(other, self.terms))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        d1, n1 = numerators(self.terms)
        d2, n2 = numerators(other.terms)
        acc = defaultdict(int)
        for m1, c1 in n1.items():
            for m2, c2 in n2.items():
                acc[tuple(map(add, m1, m2))] += c1 * c2
        return Polynomial._trusted(self.n, stored(acc, d1 * d2))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def set_last_to_zero(self) -> "Polynomial":
        """The polynomial with x_n = 0, over n-1 variables."""
        return Polynomial(
            self.n - 1,
            {m[:-1]: c for m, c in self.terms.items() if m[-1] == 0},
        )

    def sorted_terms(self):
        # graded order, x1-dominant monomials first within a degree
        return sorted(
            self.terms.items(),
            key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])),
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                body = format_coeff(mag)
            elif mag != 1:
                body = f"{format_coeff(mag)}*{body}"
            if not bits:
                bits.append(body if coeff > 0 else f"-{body}")
            else:
                bits.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(bits)


def poly_zero(n: int) -> Polynomial:
    return Polynomial(n, {})


def poly_add(p: Polynomial, q: Polynomial) -> Polynomial:
    return p + q


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    return p * q


def poly_equal(p: Polynomial, q: Polynomial) -> bool:
    if p.n != q.n:
        raise ValueError(f"variable counts differ: {p.n} vs {q.n}")
    return p.terms == q.terms


def _chain_shape(basis: str, comp: tuple):
    """Exponents and strictness pattern of a basis element's defining chain."""
    if basis == "M":
        return comp, (True,) * max(len(comp) - 1, 0)
    if basis == "Mt":
        return comp, (False,) * max(len(comp) - 1, 0)
    # F: one variable slot per unit of weight, strict across block boundaries
    exps = (1,) * sum(comp)
    strict = []
    boundary = set()
    total = 0
    for part in comp[:-1]:
        total += part
        boundary.add(total)
    for pos in range(1, sum(comp)):
        strict.append(pos in boundary)
    return exps, tuple(strict)


@lru_cache(maxsize=None)
def _expand_basis(basis: str, comp: tuple, n: int) -> tuple:
    exps, strict = _chain_shape(basis, comp)
    return tuple(chain_monomials(tuple(exps), strict, n))


def expand(a: QSymElem, n: int) -> Polynomial:
    """Evaluate a in n variables straight from its basis's summation formula."""
    if n < 1:
        raise ValueError("need at least one variable")
    d, nums = numerators(a.terms)
    acc = defaultdict(int)
    for comp, c in nums.items():
        for mono in _expand_basis(a.basis, tuple(comp), n):
            acc[mono] += c
    return Polynomial._trusted(n, stored(acc, d))


def expand_bullet(k: int, a: QSymElem, b: QSymElem, n: int, hat: bool = False) -> Polynomial:
    """Evaluate a o_k b (or a o^_k b) by its defining chained summation.

    The chain is A's parts, then the new exponent k, then B's parts, strict
    inside A and B; o_k is strict before the new slot and weak after, o^_k
    the other way around.
    """
    if k < 1:
        raise ValueError(f"product index must be a positive integer, got {k}")
    if n < 1:
        raise ValueError("need at least one variable")
    a = to_basis(a, "M") if a.basis != "M" else a
    b = to_basis(b, "M") if b.basis != "M" else b
    da, na = numerators(a.terms)
    db, nb = numerators(b.terms)
    acc = defaultdict(int)
    for A, ca in na.items():
        for B, cb in nb.items():
            coeff = ca * cb
            exps = tuple(A) + (k,) + tuple(B)
            strict = []
            strict.extend([True] * max(len(A) - 1, 0))
            if A:
                strict.append(not hat)
            if B:
                strict.append(hat)
            strict.extend([True] * max(len(B) - 1, 0))
            for mono in chain_monomials(exps, tuple(strict), n):
                acc[mono] += coeff
    return Polynomial._trusted(n, stored(acc, da * db))


def certify_equal(a: QSymElem, b: QSymElem) -> bool:
    """Decide a = b in QSym by expanding both at N = max total degree."""
    n = max(a.degree, b.degree, 1)
    return expand(a, n) == expand(b, n)
