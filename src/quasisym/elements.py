"""Sparse exact-rational linear combinations, and the elements of QSym.

Every object in the package — a QSym element, a tensor, a polynomial of
the oracle or of the two-alphabet extension, a `PowerSums` map or `Sigma`
image of the KP renderer — is a finitely supported map
from keys to nonzero rationals.  `Sparse` stores it as `nums`, a map from
key to nonzero int, over one `den >= 1` coprime to every numerator, so `==`
compares one int map and one int; `.terms` is a read-only view of that
form which works each coefficient out when it is read: an int when
integral and a Fraction otherwise, kept nowhere.  Printing reads the
form itself and builds no Fraction, and `fractions` is imported only when
a Fraction is built.  The `nums` keys of a
QSym element or tensor are words in the form they were built, plain tuples
or Compositions, which hash and compare equal; `.terms` always shows them
as Compositions.  Nothing inside the package reads a stored key as one, by
construction: a Composition concatenates to a plain tuple, as tuples do.
`Sparse` also holds a space tag (the basis, the variable count, or none)
and owns the linear structure and the printing; subclasses supply the key
check, how two spaces meet, their product, the term order and the atom
text.  Products sum int numerators over the product of the denominators and
reduce by one gcd at the end: `convolve` when keys add, else `bilinear` or
`linear`, whose image is a tuple of keys or any {key: multiplicity} mapping.

A QSym element carries a basis tag — "M" (monomial), "Mt" (the weakly
increasing variant) or "F" (fundamental).  The M basis is the internal
canonical one: every cross-basis computation normalizes to it.

Base change facts used here, a word read as its gap set (`composition.sums`):
F_C sums M_D over the supersets D of C (refinements), Mt_C over the subsets
(coarsenings).  Into M is thus a zeta transform on a Boolean lattice, out of
M its Moebius inverse: `to_basis` makes at most two sweeps and caches nothing.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from collections.abc import ItemsView, Mapping, ValuesView
from functools import partial
from math import gcd, lcm

from quasisym.composition import Composition, EMPTY, canonical_key, sweeps

BASES = ("M", "Mt", "F")


# -- coefficients ----------------------------------------------------------
# A form is (nums, den): nonzero int numerators over one den >= 1 coprime to
# them all.  A coefficient map is {key: int or Fraction}, as `.terms` shows.

# Fraction once `fractions` is loaded; until then the empty tuple, which
# nothing is an instance of, as no Fraction exists before its module loads
_Fraction = ()


def _fraction_class(load: bool = False):
    """Fraction once `fractions` is loaded, which load does; else ().

    A type check tests the bound value first and calls this only when that
    test fails, so no check runs an import statement or a lookup per call.
    """
    global _Fraction
    if not _Fraction and (load or "fractions" in sys.modules):
        from fractions import Fraction as _Fraction
    return _Fraction


def coefficient(x):
    """x in stored form: an int when integral, else a Fraction; floats raise."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, _Fraction) or isinstance(x, _fraction_class()):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"coefficients must be exact rationals, got {type(x).__name__}")


def form_of(terms: dict) -> tuple:
    """The form of a map of nonzero coefficients: den is the lcm of their
    denominators, coprime to the numerators because each Fraction is reduced."""
    den = lcm(*[v.denominator for v in terms.values()])
    return {k: v.numerator * (den // v.denominator) for k, v in terms.items()}, den


def reduced(acc: dict, den: int = 1) -> tuple:
    """The form of acc[key] / den: zeros dropped, one gcd divided out.

    The numerators are always a new plain dict, never acc itself (often a
    defaultdict, or a product's shared `nums`).  Zeros are filtered only when
    acc holds one, and the gcd is taken only when den > 1.
    """
    nums = {k: v for k, v in acc.items() if v} if 0 in acc.values() else dict(acc)
    if den == 1:
        return nums, den
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: v // g for k, v in nums.items()}, den // g


def sum_forms(*forms) -> tuple:
    """The form of the key-wise sum of forms."""
    den = lcm(*[d for _, d in forms])
    acc = defaultdict(int)
    for nums, d in forms:
        s = den // d
        for k, v in nums.items():
            acc[k] += v * s
    return reduced(acc, den)


def scaled(r, form) -> tuple:
    """The form of r times a form."""
    r = coefficient(r)
    nums, den = form
    return reduced({k: v * r.numerator for k, v in nums.items()}, den * r.denominator)


def convolve(left, right, den: int) -> tuple:
    """The form of the sum of left[a] * right[b] at key a + b over den, for two
    numerator maps whose keys add: words, packed monomials, sigma factors."""
    right = list(right.items())
    acc = defaultdict(int)
    for a, x in left.items():
        for b, y in right:
            acc[a + b] += x * y
    return reduced(acc, den)


def bilinear(left, right, image) -> tuple:
    """The form of the sum of left[a] * right[b] * image(a, b), left and right
    forms; image(a, b) is a tuple of keys that each count once, or any mapping
    {key: int}.  Where the image is the key a + b, `convolve` is the loop."""
    (nl, dl), (nr, dr) = left, right
    nr = list(nr.items())
    acc = defaultdict(int)
    for a, x in nl.items():
        for b, y in nr:
            c = x * y
            out = image(a, b)
            if type(out) is tuple:
                for k in out:
                    acc[k] += c
            else:
                for k, w in out.items():
                    acc[k] += c * w
    return reduced(acc, dl * dr)


def linear(form, image) -> tuple:
    """The form of the sum of form[key] * image(key), images as in `bilinear`."""
    return bilinear(form, ({(): 1}, 1), lambda key, _: image(key))


# -- printing --------------------------------------------------------------

def format_ratios(triples) -> str:
    """Signed text of (numerator, denominator, atom) triples, denominators
    >= 1, e.g. ``2*M[1,1] - 3/2*M[2]``; each ratio is reduced by one gcd.

    The atom "1" stands for the unit and prints as its coefficient alone.
    """
    pieces = []
    for num, den, atom in triples:
        if den != 1 and (g := gcd(num, den)) != 1:
            num, den = num // g, den // g
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        body = mag if atom == "1" else atom if mag == "1" else f"{mag}*{atom}"
        if pieces:
            pieces.append(f"+ {body}" if num > 0 else f"- {body}")
        else:
            pieces.append(body if num > 0 else f"-{body}")
    return " ".join(pieces) or "0"


# -- the sparse core -------------------------------------------------------

def _quotient(fraction, den: int, num: int):
    """num / den as `.terms` shows it: an int when integral, else fraction(num, den)."""
    return fraction(num, den) if num % den else num // den


class _Terms(Mapping):
    """The read-only {key: coefficient} view of an element.

    A key is shown through the element's `_wrap` and looked up through its
    `_unwrap` (None: as stored), and a coefficient is built when it is read,
    so a large element keeps no Fraction and no key copy per term; `items()`
    and `values()` read the stored numerators in order and look no key up.
    Views of one class over one space compare by their forms.
    """

    __slots__ = ("_of",)

    def __init__(self, elem):
        self._of = elem

    def __getitem__(self, key):
        e = self._of
        num = e.nums[key if e._unwrap is None else e._unwrap(key)]
        return num if e.den == 1 else _quotient(_fraction_class(True), e.den, num)

    def __iter__(self):
        e = self._of
        return iter(e.nums) if e._wrap is None else map(e._wrap, e.nums)

    def __len__(self):
        return len(self._of.nums)

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)

    def __eq__(self, other):
        a = self._of
        if type(other) is _Terms and type(b := other._of) is type(a) and b.space == a.space:
            return a.form == b.form
        return Mapping.__eq__(self, other)

    def __repr__(self):
        return repr(dict(self.items()))


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):
        e = self._mapping._of
        if e.den == 1:
            return iter(e.nums.values())
        return map(partial(_quotient, _fraction_class(True), e.den), e.nums.values())


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, _Values(self._mapping))


class Sparse:
    """An immutable finitely supported linear combination over a space.

    Operations always build new objects, and `.terms` cannot be written;
    `nums` is shared with the view and must be treated as read-only.
    Subclasses define `_key` (check one key of outside input), `_product`
    (of two operands over one space), `_order` (the sort key of a key) and
    `_atom` (the text of a key), and may redefine `_align` (bring two
    operands to one space), `_wrap` (how `.terms` shows a stored key: a
    QSym element's word, a plain tuple or a Composition in `nums`, always
    shows as a Composition) and `_unwrap` (the stored key of a shown one).
    Operands meet only when their classes match exactly: a `QssPoly` is a
    `Polynomial` but never equals, adds to or multiplies with one.
    """

    __slots__ = ("space", "nums", "den")

    def __init__(self, space, terms=None):
        _set_space(self, space)  # the key check may read it
        clean = {}
        for key, coeff in (terms or {}).items():
            coeff = coefficient(coeff)
            key = self._key(key)  # every key, zero terms too
            if coeff:
                if key in clean:  # two keys that check to one add up
                    coeff += clean.pop(key)
                    if not coeff:
                        continue
                clean[key] = coeff
        nums, den = form_of(clean)
        _set_nums(self, nums)
        _set_den(self, den)

    @classmethod
    def _raw(cls, space, nums: dict, den: int = 1):
        """Keys of the stored type and a form, unchecked.

        Only for results the library built itself; outside input goes through __init__.
        """
        self = object.__new__(cls)
        _set_space(self, space)
        _set_nums(self, nums)
        _set_den(self, den)
        return self

    form = property(lambda self: (self.nums, self.den), doc="the pair (nums, den)")
    _wrap = _unwrap = None  # keys are shown and looked up as stored

    terms = property(_Terms, doc="the read-only {key: coefficient} view: an int when "
                     "integral, else a Fraction")

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
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._align(other)
        return a._raw(a.space, *sum_forms(a.form, b.form))

    def __neg__(self):
        return self._raw(self.space, {k: -v for k, v in self.nums.items()}, self.den)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is type(self):
            a, b = self._align(other)
            return a._product(b)
        return self.__rmul__(other)

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, _Fraction)) or isinstance(scalar, _fraction_class()):
            return self._raw(self.space, *scaled(scalar, self.form))
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.space != other.space:
            try:
                self, other = self._align(other)
            except ValueError:
                return False
        return self.den == other.den and self.nums == other.nums

    def __bool__(self):
        return bool(self.nums)

    def text_terms(self) -> list:
        """(numerator, denominator, atom text) triples in term order, read off
        the stored form unreduced, as `format_ratios` prints them."""
        nums, den = self.form
        return [(nums[key], den, self._atom(key)) for key in sorted(nums, key=self._order)]

    def __repr__(self):
        return format_ratios(self.text_terms())


# the slots' own setters: __setattr__ refuses every write
_set_space, _set_nums, _set_den = (
    Sparse.__dict__[name].__set__ for name in Sparse.__slots__)


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

    _key = staticmethod(Composition)
    # a stored word is valid by construction: shown as a Composition unchecked
    _wrap = staticmethod(partial(tuple.__new__, Composition))
    _order = staticmethod(canonical_key)

    def _align(self, other):
        if self.basis == other.basis:
            return self, other
        return to_basis(self, "M"), to_basis(other, "M")

    def _product(self, other):
        from quasisym.products import mul

        return mul(self, other)

    def _atom(self, word) -> str:
        return f"{self.basis}{Composition.__repr__(word)}" if word else "1"

    @property
    def degree(self) -> int:
        """Max weight over the support; 0 for the zero element."""
        return max(map(sum, self.nums), default=0)


def monomial(basis: str, comp) -> QSymElem:
    """The single basis element with coefficient 1."""
    return QSymElem(basis, {Composition(comp): 1})


def zero(basis: str = "M") -> QSymElem:
    return QSymElem(basis, {})


def one(basis: str = "M") -> QSymElem:
    """The unit: the empty composition in any basis."""
    return monomial(basis, EMPTY)


def scale(r, a: QSymElem) -> QSymElem:
    return QSymElem._raw(a.basis, *scaled(r, a.form))


# -- base change ---------------------------------------------------------

def _m(a: QSymElem) -> QSymElem:
    return a if a.basis == "M" else to_basis(a, "M")


def to_basis(a: QSymElem, target: str) -> QSymElem:
    """Re-express a in the target basis; round trips are the identity."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if a.basis == target:
        return a
    # into M: F sweeps up to the supersets, Mt down to the subsets; out: sign -1
    passes = [(b == "F", sign) for b, sign in ((a.basis, 1), (target, -1)) if b != "M"]
    return QSymElem._raw(target, *reduced(sweeps(a.nums, *passes), a.den))


def counit(a: QSymElem):
    """Coefficient of the empty composition.

    Base change fixes the empty composition and preserves weight, so the
    coefficient can be read off in whichever basis a is stored.
    """
    return a.terms.get(EMPTY, 0)


def format_elem(a: QSymElem) -> str:
    """Deterministic text form, e.g. ``2*M[1,1] + M[2]`` or ``3/2*F[2,1]``."""
    return repr(a)
