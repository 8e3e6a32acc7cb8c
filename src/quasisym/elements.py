"""Sparse exact-rational linear combinations, and the elements of QSym.

Every object in the package — a QSym element, a tensor, a polynomial of
the oracle or of the two-alphabet extension — is a finitely supported map
from keys to nonzero coefficients, each an int when integral and a
Fraction otherwise.  `Sparse` holds that map together with a space tag
(the basis, the variable count, or none) and owns the linear structure
and the printing; subclasses supply the key check, how two spaces meet,
their product, the term order and the atom text.  `linear` and `bilinear`
evaluate linear and bilinear maps given on keys: they accumulate int
numerators over one common denominator and divide once at the end.

A QSym element carries a basis tag — "M" (monomial), "Mt" (the weakly
increasing variant) or "F" (fundamental).  The M basis is the internal
canonical one: every cross-basis computation normalizes to it.

Base change facts used here:

    F_C  = sum of M_D over refinements D of C
    Mt_C = sum of M_D over coarsenings D of C

and the inverse directions carry the sign (-1)^(length difference).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, partial
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


def bilinear(left: dict, right: dict, image) -> dict:
    """Stored form of the sum of left[a] * right[b] * image(a, b).

    image(a, b) is a dict {key: int}, or an iterable of keys that each count once.
    """
    dl, nl = numerators(left)
    dr, nr = numerators(right)
    nr = list(nr.items())
    acc = defaultdict(int)
    for a, x in nl.items():
        for b, y in nr:
            c = x * y
            out = image(a, b)
            if type(out) is dict:
                for k, w in out.items():
                    acc[k] += c * w
            else:
                for k in out:
                    acc[k] += c
    return stored(acc, dl * dr)


def linear(terms: dict, image) -> dict:
    """Stored form of the sum of terms[key] * image(key), images as in `bilinear`."""
    return bilinear(terms, {(): 1}, lambda key, _: image(key))


# -- printing --------------------------------------------------------------

def format_terms(pairs) -> str:
    """Signed text of (coefficient, atom) pairs, e.g. ``2*M[1,1] - 3/2*M[2]``.

    The atom "1" stands for the unit and prints as its coefficient alone.
    """
    pieces = []
    for coeff, atom in pairs:
        mag = abs(coeff)
        body = str(mag) if atom == "1" else atom if mag == 1 else f"{mag}*{atom}"
        if pieces:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        else:
            pieces.append(body if coeff > 0 else f"-{body}")
    return " ".join(pieces) or "0"


# -- the sparse core -------------------------------------------------------

class Sparse:
    """An immutable finitely supported linear combination over a space.

    Values are immutable by convention: operations always build new
    objects.  Subclasses define `_key` (check one key of outside input),
    `_product` (of two operands over one space), `_order` (the sort key of
    a key) and `_atom` (the text of a key), and may redefine `_align`
    (bring two operands to one space).
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        _set_space(self, space)
        clean = {}
        for key, coeff in (terms or {}).items():
            coeff = coefficient(coeff)
            if coeff:
                clean[self._key(key)] = coeff
        _set_terms(self, clean)

    @classmethod
    def _raw(cls, space, terms: dict):
        """Keys of the stored type and stored coefficients, unchecked.

        Only for results the library built itself; outside input goes through __init__.
        """
        self = object.__new__(cls)
        _set_space(self, space)
        _set_terms(self, terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    _spaces = "spaces"  # what differs, in the message of _align

    def _align(self, other):
        """Both operands over one space; different spaces raise ValueError."""
        if self.space != other.space:
            raise ValueError(f"{self._spaces} differ: {self.space} vs {other.space}")
        return self, other

    def _product(self, other):
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self._align(other)
        return a._raw(a.space, sum_terms(a.terms, b.terms))

    def __neg__(self):
        return self._raw(self.space, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            a, b = self._align(other)
            return a._product(b)
        return self.__rmul__(other)

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self._raw(self.space, scaled_terms(scalar, self.terms))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.space != other.space:
            try:
                self, other = self._align(other)
            except ValueError:
                return False
        return self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        order = self._order
        return sorted(self.terms.items(), key=lambda kv: order(kv[0]))

    def text_terms(self) -> list:
        """(coefficient, atom text) pairs in term order."""
        return [(coeff, self._atom(key)) for key, coeff in self.sorted_terms()]

    def __repr__(self):
        return format_terms(self.text_terms())


# the slots' own setters: __setattr__ refuses every write
_set_space, _set_terms = Sparse.space.__set__, Sparse.terms.__set__


class QSymElem(Sparse):
    """A finitely supported linear combination of basis elements.

    `==` compares the underlying quasi-symmetric functions (both sides are
    converted to the M basis), so e.g. the F and M expansions of the same
    function compare equal.
    """

    __slots__ = ()
    basis = Sparse.space  # the space slot, read under its own name

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}, expected one of {BASES}")
        Sparse.__init__(self, basis, terms)

    @classmethod
    def _words(cls, basis: str, terms: dict) -> "QSymElem":
        """Like _raw, with kernel words (valid by construction) as keys: they
        become Compositions without re-validation."""
        new = tuple.__new__
        return cls._raw(basis, {new(Composition, w): v for w, v in terms.items()})

    _key = staticmethod(Composition)
    _order = staticmethod(canonical_key)

    def _align(self, other):
        if self.basis == other.basis:
            return self, other
        return to_basis(self, "M"), to_basis(other, "M")

    def _product(self, other):
        from quasisym.products import mul

        return mul(self, other)

    def _atom(self, comp) -> str:
        return f"{self.basis}{comp!r}" if comp else "1"

    @property
    def degree(self) -> int:
        """Max weight over the support; 0 for the zero element."""
        return max((c.weight for c in self.terms), default=0)


def monomial(basis: str, comp) -> QSymElem:
    """The single basis element with coefficient 1."""
    return QSymElem(basis, {Composition(comp): 1})


def zero(basis: str = "M") -> QSymElem:
    return QSymElem(basis, {})


def one(basis: str = "M") -> QSymElem:
    """The unit: the empty composition in any basis."""
    return monomial(basis, EMPTY)


def scale(r, a: QSymElem) -> QSymElem:
    return QSymElem._raw(a.basis, scaled_terms(r, a.terms))


# -- base change ---------------------------------------------------------

def _m(a: QSymElem) -> QSymElem:
    return a if a.basis == "M" else to_basis(a, "M")


_TO_M = {"F": refinements, "Mt": coarsenings}


@lru_cache(maxsize=None)
def _from_m(target: str, comp) -> dict:
    """M_comp in the target basis: (-1)^(length difference) on each related composition."""
    return {d: -1 if (len(d) - len(comp)) % 2 else 1 for d in _TO_M[target](comp)}


def to_basis(a: QSymElem, target: str) -> QSymElem:
    """Re-express a in the target basis; round trips are the identity."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if a.basis == target:
        return a
    terms = a.terms
    if a.basis != "M":
        terms = linear(terms, _TO_M[a.basis])
    if target != "M":
        terms = linear(terms, partial(_from_m, target))
    return QSymElem._raw(target, terms)


def counit(a: QSymElem):
    """Coefficient of the empty composition.

    Base change fixes the empty composition and preserves weight, so the
    coefficient can be read off in whichever basis a is stored.
    """
    return a.terms.get(EMPTY, 0)


def format_elem(a: QSymElem) -> str:
    """Deterministic text form, e.g. ``2*M[1,1] + M[2]`` or ``3/2*F[2,1]``."""
    return repr(a)
