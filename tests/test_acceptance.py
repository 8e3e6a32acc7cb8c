"""Acceptance checklist.

One test per criterion, each run at the bounds fixed in the project
checklist, every comparison exact over rationals.  Each test prints a
single PASS/FAIL line (visible with `pytest -s` or in failure output).
"""

import subprocess
import sys

from quasisym.elements import monomial, to_basis
from quasisym.oracle import expand
from quasisym.qss import pbup_transcription, qss_bullet, qss_one, qss_p, t_substitution_check
from quasisym.suites import (
    decide,
    suite_antipode,
    suite_antipode_bullet,
    suite_antipode_F,
    suite_bullet_oracle,
    suite_delta_derivation,
    suite_distributivity,
    suite_F_rules,
    suite_generation,
    suite_kp,
    suite_kp_classical,
    suite_lemma_iter,
    suite_newton,
    suite_qss_cancel,
    suite_qss_kp,
    suite_qss_y_zero,
    suite_recursion,
    suite_shuffle_oracle,
    suite_weak_nonassoc,
)


def _check(number, name, cases):
    verdicts = [(case[0], decide(case)) for case in cases]
    failures = [f"{label}: {verdict}" for label, verdict in verdicts if not verdict]
    status = "PASS" if not failures else f"FAIL ({len(failures)}/{len(verdicts)})"
    print(f"ACCEPTANCE {number:>2} {name}: {status} [{len(verdicts)} cases]")
    assert not failures, f"criterion {number} failed: {failures[:5]}"


def test_criterion_01_bullet_oracle_equivalence():
    _check(1, "bullet/hat structure constants vs direct summation (w<=4, k<=3, N=10)",
           suite_bullet_oracle(max_total_weight=4, max_k=3, nvars=10))


def test_criterion_02_quasi_shuffle_oracle_equivalence():
    _check(2, "quasi-shuffle vs polynomial product (w<=4, N=8)",
           suite_shuffle_oracle(max_weight=4, nvars=8))


def test_criterion_03_weak_nonassociativity():
    _check(3, "weak nonassociativity, mixed indices (w<=2, k,m,n<=2)",
           suite_weak_nonassoc(max_weight=2, max_k=2))


def test_criterion_04_iteration_lemma():
    _check(4, "a o_k (1 o_l b) - (a o_k 1) o_l b = a o_{k+l} b (w<=4, k,l<=3)",
           suite_lemma_iter(max_weight=4, max_k=3))


def test_criterion_05_generation():
    _check(5, "iterated first products generate every M_C (w<=6)",
           suite_generation(max_weight=6))


def test_criterion_06_bialgebra_laws():
    cases = list(suite_delta_derivation(max_total_weight=4, max_k=3))
    cases += list(suite_distributivity(max_total_weight=3, max_k=3))
    _check(6, "coproduct derivation law (w<=4) and distributivity (w<=3), n,m<=3", cases)


def test_criterion_07_product_recursion():
    _check(7, "M_{C(k)} a = m_k((M_C (x) 1) Delta(a)) (w<=4 each)",
           suite_recursion(max_prefix_weight=3, max_k=3, max_weight_a=4))


def test_criterion_08_antipode():
    cases = list(suite_antipode(max_weight=6))
    cases += list(suite_antipode_bullet(max_weight=4, max_k=3))
    cases += list(suite_antipode_F(max_weight=6))
    _check(8, "antipode axioms, S^2=id (w<=6); anti-homomorphism (w<=4); S(F_C) (w<=6)", cases)


def test_criterion_09_fundamental_basis():
    cases = list(suite_F_rules(max_weight=6))
    # the adjudicated expansion: the honest chain summation for F[3,1]
    # contains x1*x2^2*x3, forcing the M[1,2,1] term the general refinement
    # formula predicts (the three-term variant is wrong)
    direct = expand(monomial("F", (3, 1)), 4)
    general = expand(to_basis(monomial("F", (3, 1)), "M"), 4)
    cases.append(("F[3,1] expansion adjudication", direct == general
                  and (1, 2, 1, 0) in direct.terms))
    _check(9, "F-basis product rule, elementary elements, factorization (w<=6)", cases)


def test_criterion_10_kp_identities():
    cases = list(suite_kp(max_mn=5, certify_upto=3))
    cases += list(suite_kp_classical(certify_nvars=4))
    _check(10, "KP family m,n<=5 exact, oracle m,n<=3; classical 4/3/6/6 + oracle N=4", cases)


def test_criterion_11_newton_schur():
    _check(11, "h_n = sum M_C and elementary-Schur substitution (n<=6)",
           suite_newton(max_n=6))


def test_criterion_12_qss():
    cases = list(suite_qss_kp(max_n=4))
    cases += list(suite_qss_y_zero(max_weight=4, nvars=4))
    cases += list(suite_qss_cancel(max_weight=4, nvars=4))
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            cases.append((f"p_{r} o p_{s} vs literal double sum @N=5",
                          pbup_transcription(r, s, 5), qss_bullet(1, qss_p(r, 5), qss_p(s, 5))))
    # generated elements with other tree shapes stay t-independent too
    unit = qss_one(4)
    shapes = [
        ("p1 o_1 p2", qss_bullet(1, qss_p(1, 4), qss_p(2, 4))),
        ("1 o_1 (1 o_2 1)", qss_bullet(1, unit, qss_bullet(2, unit, unit))),
        ("p1 o_1 p1", qss_bullet(1, qss_p(1, 4), qss_p(1, 4))),
    ]
    for label, elem in shapes:
        for i in range(4):
            cases.append((f"t-cancel {label} i={i + 1}", t_substitution_check(elem, i)))
    _check(12, "two-alphabet: KP N=1..4, y=0 match, t-cancellation, generator product", cases)


def test_criterion_13_determinism():
    # fresh interpreter per run, so hash randomization differs between them
    def run(*extra):
        proc = subprocess.run(
            [sys.executable, "-m", "quasisym.cli", "verify", "all", *extra],
            capture_output=True,
        )
        return proc.returncode, proc.stdout

    cases = []
    for extra in ((), ("--json",)):
        code1, first = run(*extra)
        code2, second = run(*extra)
        ok = code1 == code2 == 0 and first == second and bool(first)
        cases.append((f"verify all {' '.join(extra) or 'text'} twice", ok))
    _check(13, "verify all twice is byte-identical (text and json)", cases)
