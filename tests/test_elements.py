from collections import defaultdict
from fractions import Fraction

import pytest

from quasisym.composition import Composition, enumerate_compositions
from quasisym.elements import (
    QSymElem,
    counit,
    format_elem,
    monomial,
    one,
    reduced,
    scale,
    to_basis,
    zero,
)
from quasisym.oracle import expand
from quasisym.products import mul


def M(*p):
    return monomial("M", p)


def test_monomial_and_zero_pruning():
    assert monomial("M", ()) == one()
    assert QSymElem("M", {(2,): 0}) == zero()
    assert not zero()
    with pytest.raises(ValueError):  # a zero term's key is checked too
        QSymElem("M", {"junk": 0, (0, -3): 0})
    with pytest.raises(ValueError):
        monomial("X", (1,))
    with pytest.raises(ValueError):
        to_basis(M(1), "X")
    with pytest.raises(TypeError):
        QSymElem("M", {(1,): 0.5})


def test_base_change_results_share_no_numerators():
    """A write into one `to_basis` result's nums reaches no later call."""
    first = to_basis(M(1, 1), "F")
    first.nums[Composition((9,))] = 5
    assert repr(to_basis(M(1, 1), "F")) == "F[1,1]"
    assert repr(to_basis(monomial("F", (1, 2)), "Mt")) == "-Mt[2,1] + Mt[1,1,1]"
    to_basis(monomial("F", (1, 2)), "Mt").nums.clear()
    assert repr(to_basis(monomial("F", (1, 2)), "Mt")) == "-Mt[2,1] + Mt[1,1,1]"


def test_reduced_returns_a_new_plain_dict():
    acc = defaultdict(int, {"a": 6, "b": 4})
    nums, den = reduced(acc, 10)
    assert type(nums) is dict and nums is not acc
    assert (nums, den) == ({"a": 3, "b": 2}, 5)
    acc = defaultdict(int, {"a": 6, "b": 0, "c": 4})
    assert reduced(acc, 1) == ({"a": 6, "c": 4}, 1)  # den 1: nothing to divide out
    assert reduced(acc, 4) == ({"a": 3, "c": 2}, 2)
    assert reduced(acc, 3) == ({"a": 6, "c": 4}, 3)  # gcd 1
    assert acc == {"a": 6, "b": 0, "c": 4}
    plain = {"a": 2}
    nums, den = reduced(plain)
    assert (nums, den) == (plain, 1) and nums is not plain
    assert reduced(defaultdict(int, {"a": 0}), 7) == ({}, 1)


def test_linear_ops():
    assert M(2) + M(2) == scale(2, M(2))
    assert M(2) + scale(-1, M(2)) == zero()
    assert scale(Fraction(1, 2), scale(2, M(1, 1))) == M(1, 1)
    assert 3 * M(2) - M(2) == 2 * M(2)
    assert (M(2) + M(1, 1)).degree == 2
    assert zero().degree == 0


def test_cross_basis_addition_normalizes():
    s = monomial("F", (2,)) + M(1, 1)
    assert s.basis == "M"
    assert s == M(2) + 2 * M(1, 1)


def test_product_operator_is_mul_across_bases():
    a, b = monomial("F", (2,)) + M(1), 3 * monomial("Mt", (1, 1))
    assert a * b == mul(a, b) == mul(to_basis(a, "M"), to_basis(b, "M"))


@pytest.mark.parametrize("name, value", [("nums", {}), ("den", 2), ("space", "F")])
def test_elements_refuse_writes(name, value):
    a = M(2)
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    assert a.form == ({(2,): 1}, 1) and a.space == "M"


def test_to_basis_examples():
    # the general refinement formula, adjudicated against the honest
    # F-definition expansion in test_oracle (the 4-term version is correct)
    assert to_basis(monomial("F", (3, 1)), "M") == M(3, 1) + M(2, 1, 1) + M(1, 2, 1) + M(1, 1, 1, 1)
    assert to_basis(monomial("Mt", (1, 1)), "M") == M(1, 1) + M(2)
    for basis in ("M", "Mt", "F"):
        assert to_basis(monomial(basis, ()), "M") == one()


def test_round_trips_weight_6():
    for c in enumerate_compositions(6):
        for src in ("M", "Mt", "F"):
            e = monomial(src, c)
            for mid in ("M", "Mt", "F"):
                assert to_basis(to_basis(e, mid), "M") == to_basis(e, "M")
                assert to_basis(to_basis(e, mid), src) == e


def test_base_change_unitriangular():
    # each weight-graded block has +-1 entries and diagonal 1
    for c in enumerate_compositions(5):
        for target in ("Mt", "F"):
            image = to_basis(monomial("M", c), target)
            assert image.terms[c] == 1
            assert all(v in (1, -1) for v in image.terms.values())
            assert all(d.weight == c.weight for d in image.terms)


def test_counit():
    assert counit(one()) == 1
    assert counit(M(2, 1)) == 0
    assert counit(3 * one() + 5 * M(4)) == 3
    assert counit(monomial("F", (2,))) == 0
    # linear and multiplicative for the ordinary product
    a, b = M(1) + 2 * one(), M(2) + 3 * one()
    assert counit(mul(a, b)) == counit(a) * counit(b)


def test_equality_is_semantic():
    assert monomial("F", (1, 1)) == M(1, 1)
    assert monomial("Mt", (2,)) == M(2)
    assert M(1, 2) != M(2, 1)


def test_format_elem():
    assert format_elem(zero()) == "0"
    assert format_elem(mul(M(1), M(1))) == "M[2] + 2*M[1,1]"
    assert format_elem(scale(Fraction(3, 2), M(2)) + M(1, 1)) == "3/2*M[2] + M[1,1]"
    assert format_elem(-M(2) + M(1, 1)) == "-M[2] + M[1,1]"
    assert format_elem(3 * one() + M(4)) == "3 + M[4]"
    assert format_elem(monomial("Mt", (1, 1))) == "Mt[1,1]"


def test_degree_bound_matches_expansion():
    e = mul(M(2), M(1, 1))
    assert e.degree == 4
    assert expand(e, 4) == expand(e, 4)
