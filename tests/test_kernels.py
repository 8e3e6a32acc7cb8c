"""The two kernels on small inputs, checked by hand."""

import pytest

from quasisym import _core
from quasisym.elements import monomial
from quasisym.oracle import _expand_basis, expand


def test_pure_quasi_shuffle_basics():
    assert _core.quasi_shuffle((), (2, 1)) == {(2, 1): 1}
    assert _core.quasi_shuffle((1,), (1,)) == {(1, 1): 2, (2,): 1}
    assert _core.quasi_shuffle((1,), (2, 1)) == {
        (1, 2, 1): 1,
        (3, 1): 1,
        (2, 1, 1): 2,
        (2, 2): 1,
    }


def test_pure_chain_monomials_basics():
    assert _core.chain_monomials((), (), 3) == ((0, 0, 0),)
    assert sorted(_core.chain_monomials((1, 1), (True,), 3)) == [
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
    ]
    # weak chain merges exponents at equal indices
    assert sorted(_core.chain_monomials((1, 1), (False,), 2)) == [
        (0, 2),
        (1, 1),
        (2, 0),
    ]
    # more strict steps than variables: empty
    assert _core.chain_monomials((1, 1, 1), (True, True), 2) == ()


def test_cached_chain_monomials_cannot_be_corrupted():
    # the oracle's basis cache and expand_bullet read the kernel's cached result
    try:
        with pytest.raises(AttributeError):
            _core.chain_monomials((1,), (), 2).append((9, 9))
        _expand_basis.cache_clear()
        assert str(expand(monomial("M", (1,)), 2)) == "x1 + x2"
    finally:
        _core.clear_caches()
        _expand_basis.cache_clear()
