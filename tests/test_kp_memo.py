"""The KP family shares its terms across members: the memos change no answer.

`kp_identity` builds each member from the cached written sums S(m, n), and
`certify_kp` keeps one verdict per unordered member.  The references below
build every member from scratch, as the module did before it shared terms,
and each test compares the two, cold and warm, in both call orders.  Each
test starts and ends with `_core.clear_caches()`, which empties every memo
of the package.
"""

import pytest

from quasisym import _core, kp, oracle
from quasisym.elements import QSymElem, scaled, sum_forms
from quasisym.kp import certify_kp, complete_h, h_product, kp_identity
from quasisym.oracle import Polynomial, expand, expand_bullet, poly_mul
from quasisym.products import bullet

FAMILY = [(m, n) for m in range(1, 7) for n in range(1, 7)]
CERTIFIED = [(m, n) for m, n in FAMILY if m + n <= 5]


def reference_kp_identity(m, n):
    lhs = h_product(m, n + 1) - h_product(m + 1, n)
    rhs = sum_forms(
        *(bullet(1, complete_h(k), h_product(m - k, n)).form for k in range(1, m + 1)),
        *(scaled(-1, bullet(1, complete_h(k), h_product(n - k, m)).form)
          for k in range(1, n + 1)))
    return lhs, QSymElem._raw("M", *rhs)


def reference_oracle_sides(m, n, nvars):
    h = complete_h
    e = lambda q: expand(q, nvars)
    lhs = poly_mul(e(h(m)), e(h(n + 1))) - poly_mul(e(h(m + 1)), e(h(n)))
    eb = oracle.expand_bullet  # as bound now, so that a planted fault reaches it
    first = (eb(1, h(k), h_product(m - k, n), nvars).form for k in range(1, m + 1))
    second = (scaled(-1, eb(1, h(k), h_product(n - k, m), nvars).form) for k in range(1, n + 1))
    return lhs, Polynomial._raw(nvars, *sum_forms(*first, *second))


def reference_certify_kp(m, n, nvars):
    lhs, rhs = reference_oracle_sides(m, n, nvars)
    return lhs == rhs


@pytest.fixture(autouse=True)
def cold_memos():
    _core.clear_caches()
    yield
    _core.clear_caches()


def assert_same_member(m, n):
    got, want = kp_identity(m, n), reference_kp_identity(m, n)
    for g, w in zip(got, want):
        assert type(g) is QSymElem and g.basis == "M"
        assert g.form == w.form, (m, n)
    assert (got[0] == got[1]) == (want[0] == want[1])


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_family_matches_the_reference_cold_and_warm(order):
    members = FAMILY if order == "ascending" else FAMILY[::-1]
    for _ in ("cold", "warm"):
        for m, n in members:
            assert_same_member(m, n)
    # every ordered pair of written sums, and nothing else, was cached
    assert kp._bullet_sum.cache_info().currsize == len(FAMILY)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_certification_matches_the_reference_cold_and_warm(order):
    members = CERTIFIED if order == "ascending" else CERTIFIED[::-1]
    for _ in ("cold", "warm"):
        for m, n in members:
            for nvars in (m + n + 1, m + n + 2):
                assert certify_kp(m, n, nvars) is reference_certify_kp(m, n, nvars) is True


def test_counted_verdicts_match_the_reference_off_the_diagonal():
    # N runs to m + n + 3, and to m + n + 2 at m + n = 7, where the
    # reference's dense products take a second and a half at N = 10
    for m, n in [(m, n) for m in range(1, 7) for n in range(1, 8 - m) if m != n]:
        for nvars in range(m + n + 1, m + n + 3 + (m + n < 7)):
            assert certify_kp(m, n, nvars) is reference_certify_kp(m, n, nvars), (m, n, nvars)


def test_the_swapped_member_reads_the_one_verdict():
    for m, n in CERTIFIED:
        nvars = m + n + 1
        assert certify_kp(m, n, nvars)
        before = oracle.kp_counts_agree.cache_info()
        assert certify_kp(n, m, nvars) is reference_certify_kp(n, m, nvars) is True
        after = oracle.kp_counts_agree.cache_info()
        assert (after.hits - before.hits, after.currsize) == (1, before.currsize), (m, n)


def test_swapped_member_and_diagonal():
    lhs, rhs = kp_identity(2, 4)
    swapped = kp_identity(4, 2)
    assert swapped[0] == -lhs and swapped[1] == -rhs
    assert certify_kp(2, 4, 7) and certify_kp(4, 2, 7)
    # the diagonal subtracts one cached sum from itself: both sides are 0
    for m in range(1, 5):
        assert kp_identity(m, m) == (QSymElem("M", {}), QSymElem("M", {}))
        assert certify_kp(m, m, 2 * m + 1)


def test_one_member_at_two_variable_counts():
    # the verdict memo is keyed by the variable count too
    for nvars in (6, 8, 6):
        assert certify_kp(2, 3, nvars)
        assert certify_kp(3, 2, nvars)
    assert oracle.kp_counts_agree.cache_info().currsize == 2


def test_results_are_new_objects():
    lhs, rhs = kp_identity(2, 3)
    word = next(iter(rhs.nums))
    rhs.nums[word] += 99
    lhs.nums.clear()
    again = kp_identity(2, 3)
    want = reference_kp_identity(2, 3)
    assert again[0].form == want[0].form and again[1].form == want[1].form
    swapped = kp_identity(3, 2)
    swapped[1].nums[word] = 7
    assert kp_identity(3, 2)[1] == -want[1]


def test_cached_entries_are_read_only():
    kp_identity(1, 2)
    certify_kp(1, 2, 4)
    for entry in (kp._bullet_sum(1, 2), kp._bullet_sum(2, 1)):
        nums, _ = entry
        with pytest.raises(TypeError):
            nums[next(iter(nums))] = 5
    assert certify_kp(1, 2, 4)


def test_a_planted_fault_shows_once_the_memos_are_cleared(monkeypatch):
    assert certify_kp(1, 2, 4) and kp_identity(1, 2)[0] == kp_identity(1, 2)[1]

    def off_by_one(k, a, b):  # a wrong written sum: one term too many
        return bullet(k, a, b) + QSymElem("M", {(1,): 1})

    monkeypatch.setattr(kp, "bullet", off_by_one)
    _core.clear_caches()
    lhs, rhs = kp_identity(1, 2)
    assert lhs != rhs

    def wrong_oracle(k, a, b, n, hat=False):
        return expand_bullet(k, a, b, n, hat) + Polynomial(n, {(1,) + (0,) * (n - 1): 1})

    monkeypatch.undo()
    monkeypatch.setattr(oracle, "expand_bullet", wrong_oracle)
    _core.clear_caches()
    assert not reference_certify_kp(1, 2, 4)
    assert certify_kp(1, 2, 4)  # the counting oracle expands nothing

    count = oracle.h_pair_count

    def wrong_count(a, beta):  # one coefficient of h_1 h_3 off by one
        return count(a, beta) + ((a, beta) == (1, (1, 1, 1, 1)))

    monkeypatch.undo()
    monkeypatch.setattr(oracle, "h_pair_count", wrong_count)
    _core.clear_caches()
    assert not certify_kp(1, 2, 4)

