"""Elements of QSym: exact-rational linear combinations of compositions.

An element carries a basis tag — "M" (monomial), "Mt" (the weakly
increasing variant) or "F" (fundamental) — and a finitely supported map
from compositions to nonzero coefficients, each an int when integral and
a Fraction otherwise.  Sums accumulate int numerators over one common
denominator and divide once at the end.  The M basis is the internal
canonical one: every cross-basis computation normalizes to it.

Base change facts used here:

    F_C  = sum of M_D over refinements D of C
    Mt_C = sum of M_D over coarsenings D of C

and the inverse directions carry the sign (-1)^(length difference).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm

from quasisym.composition import (
    Composition,
    EMPTY,
    canonical_key,
    coarsenings,
    refinements,
)

BASES = ("M", "Mt", "F")


# -- coefficients ----------------------------------------------------------

def coefficient(x):
    """x in stored form: an int when integral, else a Fraction; floats raise."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"coefficients must be exact rationals, got {type(x).__name__}")


def numerators(terms: dict):
    """(d, nums) with terms[key] == nums[key] / d, d the lcm of the denominators."""
    d = lcm(*[v.denominator for v in terms.values()])
    if d == 1:
        return 1, terms
    return d, {k: v.numerator * (d // v.denominator) for k, v in terms.items()}


def stored(sums: dict, d: int = 1) -> dict:
    """The stored coefficients sums[key] / d: zeros dropped, ints where integral."""
    if d == 1:
        return {k: v for k, v in sums.items() if v}
    out = {}
    for k, v in sums.items():
        if v:
            q, r = divmod(v, d)
            out[k] = Fraction(v, d) if r else q
    return out


def sum_terms(*maps) -> dict:
    """Stored form of the key-wise sum of coefficient maps."""
    d = lcm(*[v.denominator for m in maps for v in m.values()])
    acc = defaultdict(int)
    for m in maps:
        for k, v in m.items():
            acc[k] += v.numerator * (d // v.denominator)
    return stored(acc, d)


def scaled_terms(r, terms: dict) -> dict:
    """Stored form of r times every coefficient of a map."""
    r = coefficient(r)
    return {k: coefficient(r * v) for k, v in terms.items()} if r else {}


class QSymElem:
    """A finitely supported linear combination of basis elements.

    Values are immutable by convention: operations always build new
    elements.  `==` compares the underlying quasi-symmetric functions (both
    sides are converted to the M basis), so e.g. the F and M expansions of
    the same function compare equal.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}, expected one of {BASES}")
        object.__setattr__(self, "basis", basis)
        clean = {}
        for comp, coeff in (terms or {}).items():
            coeff = coefficient(coeff)
            if coeff:
                clean[Composition(comp)] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, basis: str, terms: dict) -> "QSymElem":
        """Wrap kernel words (valid by construction) and stored coefficients, unchecked.

        Only for results the library built itself; outside input goes through __init__.
        """
        self, new = object.__new__(cls), tuple.__new__
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", {new(Composition, w): v for w, v in terms.items()})
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QSymElem is immutable")

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSymElem):
            return NotImplemented
        a, b = self, other
        if a.basis != b.basis:
            a, b = to_basis(a, "M"), to_basis(b, "M")
        return QSymElem._trusted(a.basis, sum_terms(a.terms, b.terms))

    def __neg__(self):
        return QSymElem._trusted(self.basis, {c: -v for c, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, QSymElem):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return scale(scalar, self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return scale(other, self)
        if isinstance(other, QSymElem):
            from quasisym.products import mul

            return mul(self, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, QSymElem):
            return NotImplemented
        a = self if self.basis == "M" else to_basis(self, "M")
        b = other if other.basis == "M" else to_basis(other, "M")
        return a.terms == b.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    @property
    def degree(self) -> int:
        """Max weight over the support; 0 for the zero element."""
        return max((c.weight for c in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0]))

    def __repr__(self):
        return format_elem(self)


def monomial(basis: str, comp) -> QSymElem:
    """The single basis element with coefficient 1."""
    return QSymElem(basis, {Composition(comp): 1})


def zero(basis: str = "M") -> QSymElem:
    return QSymElem(basis, {})


def one(basis: str = "M") -> QSymElem:
    """The unit: the empty composition in any basis."""
    return monomial(basis, EMPTY)


def add(a: QSymElem, b: QSymElem) -> QSymElem:
    return a + b


def scale(r, a: QSymElem) -> QSymElem:
    return QSymElem._trusted(a.basis, scaled_terms(r, a.terms))


# -- base change ---------------------------------------------------------

def to_basis(a: QSymElem, target: str) -> QSymElem:
    """Re-express a in the target basis; round trips are the identity."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if a.basis == target:
        return a
    d, nums = numerators(a.terms)
    # a.basis -> M with all signs +1, then M -> target with (-1)^(length difference)
    for basis, signed in ((a.basis, False), (target, True)):
        if basis != "M":
            related = refinements if basis == "F" else coarsenings
            acc = defaultdict(int)
            for comp, c in nums.items():
                for m in related(comp):
                    acc[m] += -c if signed and (len(m) - len(comp)) % 2 else c
            nums = stored(acc)
    return QSymElem._trusted(target, stored(nums, d))


def counit(a: QSymElem):
    """Coefficient of the empty composition.

    Base change fixes the empty composition and preserves weight, so the
    coefficient can be read off in whichever basis a is stored.
    """
    return a.terms.get(EMPTY, 0)


# -- printing ------------------------------------------------------------

def format_coeff(c) -> str:
    """A stored coefficient as text: ``3`` or ``3/2``."""
    return str(c)


def _atom(basis: str, comp: Composition) -> str:
    if not comp:
        return "1"
    return f"{basis}{comp!r}"


def format_elem(a: QSymElem) -> str:
    """Deterministic text form, e.g. ``2*M[1,1] + M[2]`` or ``3/2*F[2,1]``."""
    if not a.terms:
        return "0"
    pieces = []
    for comp, coeff in a.sorted_terms():
        atom = _atom(a.basis, comp)
        mag = abs(coeff)
        if atom == "1":
            body = format_coeff(mag)
        elif mag == 1:
            body = atom
        else:
            body = f"{format_coeff(mag)}*{atom}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
