from fractions import Fraction

import pytest

from quasisym.composition import Composition, enumerate_compositions
from quasisym.elements import counit, monomial, one, to_basis, zero
from quasisym.hopf import (
    TensorElem,
    antipode,
    antipode_axiom_left,
    antipode_axiom_right,
    antipode_F,
    coproduct,
    counit_left,
    counit_right,
    derivation_delta,
    m_k,
    tensor_bullet_left,
    tensor_bullet_right,
    tensor_mul,
    tensor_of,
)
from quasisym.products import bullet, mul


def M(*p):
    return monomial("M", p)


def T(*pairs):
    return TensorElem({(Composition(a), Composition(b)): Fraction(c) for a, b, c in pairs})


def test_coproduct_examples():
    assert coproduct(one()) == T(((), (), 1))
    assert coproduct(M(4)) == T(((), (4,), 1), ((4,), (), 1))
    assert coproduct(M(2, 1)) == T(((), (2, 1), 1), ((2,), (1,), 1), ((2, 1), (), 1))
    assert coproduct(zero()) == TensorElem()


def test_coassociativity_weight_6():
    for c in enumerate_compositions(6):
        t = coproduct(M(*c))
        left = {}
        right = {}
        for (a, b), coeff in t.terms.items():
            for (x, y), u in coproduct(M(*a)).terms.items():
                key = (x, y, b)
                left[key] = left.get(key, 0) + coeff * u
            for (x, y), u in coproduct(M(*b)).terms.items():
                key = (a, x, y)
                right[key] = right.get(key, 0) + coeff * u
        assert left == right


def test_tensor_scalars_and_signed_printing():
    t = coproduct(M(1))
    assert t * 2 == 2 * t == T(((), (1,), 2), ((1,), (), 2))
    assert t * Fraction(1, 2) == Fraction(1, 2) * t
    with pytest.raises(TypeError):
        t * 0.5
    assert repr(coproduct(-2 * M(1, 2))) == "-2*1 (x) M[1,2] - 2*M[1] (x) M[2] - 2*M[1,2] (x) 1"
    assert repr(TensorElem()) == "0"


def test_counit_laws():
    for c in enumerate_compositions(5):
        e = M(*c)
        t = coproduct(e)
        assert counit_left(t) == e
        assert counit_right(t) == e


def test_tensor_bullet_actions():
    t = tensor_of(M(1), one())
    hit = tensor_bullet_right(t, 1, M(2))
    assert hit == T(((1,), (1, 2), 1), ((1,), (3,), 1))
    assert tensor_bullet_left(one(), 2, tensor_of(one(), one())) == T(((2,), (), 1))


def test_bimodule_laws():
    comps = enumerate_compositions(2)
    tensors = [tensor_of(M(*a), M(*b)) for a in comps[:3] for b in comps[:3]]
    elems = [M(*c) for c in comps]
    for t in tensors:
        for a in elems:
            for b in elems:
                for k in (1, 2):
                    for l in (1, 2):
                        # a o_k (m o_l b) = (a o_k m) o_l b
                        assert tensor_bullet_left(a, k, tensor_bullet_right(t, l, b)) == \
                            tensor_bullet_right(tensor_bullet_left(a, k, t), l, b)


def test_restricted_module_laws():
    comps = [c for c in enumerate_compositions(2)]
    tensors = [tensor_of(M(*a), M(*b)) for a in comps[:3] for b in comps[:3]]
    for t in tensors:
        for a in comps:
            ea = M(*a)
            for k in (1, 2):
                for l in (1, 2):
                    # restricted module laws need zero counit in the middle
                    for b in comps:
                        if not b:
                            continue
                        eb = M(*b)
                        assert tensor_bullet_left(ea, k, tensor_bullet_left(eb, l, t)) == \
                            tensor_bullet_left(bullet(k, ea, eb), l, t)
                        assert tensor_bullet_right(tensor_bullet_right(t, k, eb), l, ea) == \
                            tensor_bullet_right(t, k, bullet(l, eb, ea))
                    # unit corrections
                    lhs = tensor_bullet_left(ea, k, tensor_bullet_left(one(), l, t))
                    rhs = tensor_bullet_left(bullet(k, ea, one()), l, t) + tensor_bullet_left(ea, k + l, t)
                    assert lhs == rhs
                    lhs = tensor_bullet_right(tensor_bullet_right(t, k, one()), l, ea)
                    rhs = tensor_bullet_right(t, k, bullet(l, one(), ea)) - tensor_bullet_right(t, k + l, ea)
                    assert lhs == rhs


def test_m_k():
    assert m_k(1, tensor_of(one(), one())) == M(1)
    assert m_k(1, TensorElem()) == zero()
    # m_n(Delta(M_(2,1))) spells out the three-term sum
    got = m_k(2, coproduct(M(2, 1)))
    want = (
        bullet(2, one(), M(2, 1))
        + bullet(2, M(2), M(1))
        + bullet(2, M(2, 1), one())
    )
    assert got == want
    # and reproduces multiplication by M_(n)
    for c in enumerate_compositions(4):
        for n in (1, 2, 3):
            assert m_k(n, coproduct(M(*c))) == mul(M(n), M(*c))


def test_derivation_property_of_coproduct():
    for a in enumerate_compositions(3):
        for b in enumerate_compositions(3):
            ea, eb = M(*a), M(*b)
            for n in (1, 2, 3):
                lhs = coproduct(bullet(n, ea, eb))
                rhs = tensor_bullet_right(coproduct(ea), n, eb) + tensor_bullet_left(
                    ea, n, coproduct(eb)
                )
                assert lhs == rhs


def test_distributivity():
    comps = enumerate_compositions(3)
    for a in comps:
        for b in comps:
            for c in comps:
                if a.weight + b.weight + c.weight > 3:
                    continue
                ea, eb, ec = M(*a), M(*b), M(*c)
                for m in (1, 2, 3):
                    lhs = mul(ec, bullet(m, ea, eb))
                    rhs = m_k(m, tensor_mul(coproduct(ec), tensor_of(ea, eb)))
                    assert lhs == rhs


def test_recursion_reproduces_mul():
    for c in enumerate_compositions(3):
        for k in (1, 2, 3):
            left = monomial("M", tuple(c) + (k,))
            for a in enumerate_compositions(4):
                ea = M(*a)
                got = m_k(k, tensor_mul(tensor_of(M(*c), one()), coproduct(ea)))
                assert got == mul(left, ea)


def test_antipode_examples():
    assert antipode(M(3)) == -M(3)
    assert antipode(M(2, 1)) == M(1, 2) + M(3)
    assert antipode(one()) == one()


def test_antipode_axioms_weight_6():
    for c in enumerate_compositions(6):
        e = M(*c)
        target = counit(e) * one()
        assert antipode_axiom_left(e) == target
        assert antipode_axiom_right(e) == target
        assert antipode(antipode(e)) == e


def test_antipode_anti_homomorphism():
    comps = enumerate_compositions(4)
    for a in comps:
        for b in comps:
            if a.weight + b.weight > 4:
                continue
            ea, eb = M(*a), M(*b)
            for n in (1, 2, 3):
                assert antipode(bullet(n, ea, eb)) == -bullet(n, antipode(eb), antipode(ea))


def test_antipode_F():
    assert to_basis(antipode_F((2, 1)), "M") == -to_basis(monomial("F", (2, 1)), "M")
    assert antipode_F((1,)) == -M(1)
    with pytest.raises(ValueError):
        antipode_F(())
    for c in enumerate_compositions(6):
        if not c:
            continue
        assert to_basis(antipode_F(c), "M") == antipode(to_basis(monomial("F", c), "M"))


def test_coproduct_on_mt_is_deconcatenation():
    for c in enumerate_compositions(4):
        lhs = coproduct(to_basis(monomial("Mt", c), "M"))
        rhs = TensorElem()
        for cut in range(len(c) + 1):
            a, b = Composition(c[:cut]), Composition(c[cut:])
            rhs = rhs + tensor_of(to_basis(monomial("Mt", a), "M"), to_basis(monomial("Mt", b), "M"))
        assert lhs == rhs


def test_derivations_commute_and_leibniz():
    assert derivation_delta(1, one()) == M(1)
    assert derivation_delta(2, M(1)) == M(2, 1) + M(3) + M(1, 2)
    for a in enumerate_compositions(3):
        e = M(*a)
        assert derivation_delta(1, derivation_delta(3, e)) == derivation_delta(
            3, derivation_delta(1, e)
        )
        assert derivation_delta(2, e) == m_k(2, coproduct(e))
        for b in enumerate_compositions(2):
            for k in (1, 2):
                for n in (1, 2):
                    lhs = derivation_delta(n, bullet(k, e, M(*b)))
                    rhs = bullet(k, derivation_delta(n, e), M(*b)) + bullet(
                        k, e, derivation_delta(n, M(*b))
                    )
                    assert lhs == rhs
    with pytest.raises(ValueError):
        derivation_delta(0, one())
