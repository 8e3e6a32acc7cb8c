"""Base change and the antipode against the enumeration they replaced.

The reference below lists, for each term, every related word: the
refinements of an F word or the coarsenings of an Mt word on the way to M,
and the same lists with the sign (-1)^(length difference) on the way out.
It shares no code with the gap-set sweeps in `quasisym.composition`.  The
CLI cases at the end run in a child process with a small address space:
the enumeration needed about 3^(n-1) steps and kept its tables, the sweeps
need at most 2^(n-1) keys per weight n.
"""

import resource
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, pairwise, product

import pytest
from hypothesis import given, settings, strategies as st

from quasisym.composition import Composition, coarsenings
from quasisym.elements import BASES, QSymElem, format_elem, to_basis
from quasisym.hopf import antipode


def ref_compositions(n):
    if n == 0:
        return [()]
    return [(first, *rest) for first in range(1, n + 1) for rest in ref_compositions(n - first)]


def ref_refinements(c):
    words = [()]
    for part in c:
        words = [(*prefix, *piece) for prefix in words for piece in ref_compositions(part)]
    return words


def ref_coarsenings(c):
    return [tuple(sum(c[a:b]) for a, b in pairwise((0, *kept, len(c))))
            for r in range(len(c)) for kept in combinations(range(1, len(c)), r)] or [()]


REF_TO_M = {"F": ref_refinements, "Mt": ref_coarsenings}


def ref_to_basis(terms: dict, source: str, target: str) -> dict:
    """{word: Fraction} in source, re-expressed in target through M."""
    if source == target:
        return dict(terms)
    acc = defaultdict(Fraction)
    for c, x in terms.items():
        for d in REF_TO_M[source](c) if source != "M" else [c]:
            if target == "M":
                acc[d] += x
            else:
                for e in REF_TO_M[target](d):
                    acc[e] += -x if (len(e) - len(d)) % 2 else x
    return {k: v for k, v in acc.items() if v}


def ref_antipode(terms: dict, source: str) -> dict:
    """S(M_C) = (-1)^len(C) Mt_{reverse(C)}, in M."""
    m = ref_to_basis(terms, source, "M")
    image = {c[::-1]: -x if len(c) % 2 else x for c, x in m.items()}
    return ref_to_basis(image, "Mt", "M")


coefficients = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 6, 7)))
words = st.lists(st.integers(1, 8), max_size=8).filter(lambda c: sum(c) <= 8).map(tuple)
term_maps = st.dictionaries(words, coefficients, max_size=6)


@pytest.mark.parametrize("source, target", list(product(BASES, BASES)))
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(terms=term_maps)
def test_to_basis_and_antipode_equal_the_enumeration(source, target, terms):
    a = QSymElem(source, terms)
    want = {Composition(k): v for k, v in ref_to_basis(a.terms, source, target).items()}
    got = to_basis(a, target)
    assert got.basis == target and dict(got.terms.items()) == want
    assert all(type(v) is int and v for v in got.nums.values())
    want = {Composition(k): v for k, v in ref_antipode(a.terms, source).items()}
    assert dict(antipode(a).terms.items()) == want


def test_a_huge_part_is_one_point_on_the_way_down():
    # a sweep down numbers only the partial sums, so no mask has 10^21 bits
    big = 10**21
    assert repr(to_basis(QSymElem("M", {(big, 3): 1}), "Mt")) == f"-Mt[{big + 3}] + Mt[{big},3]"
    assert repr(antipode(QSymElem("M", {(big, 3): 1}))) == f"M[{big + 3}] + M[3,{big}]"
    assert repr(antipode(QSymElem("Mt", {(big, 3): 1}))) == f"M[3,{big}]"
    assert coarsenings((big, 3)) == {Composition((big, 3)), Composition((big + 3,))}


def _small_address_space():
    limit = 300 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _mt_of_f_twos(k):
    """F[2^k] in Mt, written out: Mt[1, x_1, ..., x_{k-1}, 1] with each x_i
    one of [2] and [1,1], signed (-1)^(k - 1 + the number of [1,1])."""
    return QSymElem("Mt", {(1, *[p for x in xs for p in x], 1): (-1) ** (k - 1 + sum(
        len(x) - 1 for x in xs)) for xs in product([(2,), (1, 1)], repeat=k - 1)})


@pytest.mark.parametrize("argv, out", [
    (("antipode", "F[16]"), "M[" + ",".join(["1"] * 16) + "]\n"),
    (("convert", "--to", "Mt", "F[2,2,2,2,2,2,2,2]"), format_elem(_mt_of_f_twos(8)) + "\n"),
], ids=["antipode F[16]", "convert --to Mt F[2^8]"])
def test_large_base_changes_finish_in_a_small_address_space(argv, out):
    # 2^15 intermediate M words; an enumeration with per-word tables ran out
    proc = subprocess.run([sys.executable, "-m", "quasisym.cli", *argv], capture_output=True,
                          text=True, timeout=10, preexec_fn=_small_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
