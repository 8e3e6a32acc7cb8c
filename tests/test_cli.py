import json
import subprocess
import sys

import pytest

from quasisym.cli import ParseError, evaluate, main, parse
from quasisym.elements import format_elem, monomial, one
from quasisym.kp import complete_h
from quasisym.products import bullet, hat_bullet, mul


def M(*p):
    return monomial("M", p)


# -- parser ---------------------------------------------------------------

def test_parse_atoms():
    assert parse("M[2,1]") == ("basis", "M", (2, 1))
    assert parse("Mt[1,1]") == ("basis", "Mt", (1, 1))
    assert parse("F[]") == ("basis", "F", ())
    assert parse("p3") == ("named", "p", 3)
    assert parse("h2") == ("named", "h", 2)
    assert parse("1")[0] == "num"
    assert parse("3/2")[0] == "num"


def test_parse_operators():
    assert parse("M[2] .1. M[3]") == ("bullet", 1, ("basis", "M", (2,)), ("basis", "M", (3,)))
    assert parse("M[2] ^3^ 1")[0] == "hat"
    node = parse("(1 .1. 1) .1. 1")
    assert node[0] == "bullet" and node[2][0] == "bullet"
    assert parse("p1 * p1") == ("mul", ("named", "p", 1), ("named", "p", 1))
    assert parse("p1*p1*p1")[0] == "mul"


def test_parse_rejects_ambiguous_chains():
    with pytest.raises(ParseError):
        parse("p1 * p1 .1. p1")
    with pytest.raises(ParseError):
        parse("1 .1. 1 .1. 1")
    with pytest.raises(ParseError):
        parse("1 .1. 1 ^2^ 1")
    # parenthesized versions are fine
    parse("(p1 * p1) .1. p1")
    parse("1 .1. (1 .1. 1)")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("M[2] + $")
    assert "position 7" in str(err.value)
    with pytest.raises(ParseError):
        parse("M[0]")
    with pytest.raises(ParseError):
        parse("(M[2]")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("1/0")


def test_eval_examples():
    from fractions import Fraction

    from quasisym.elements import scale

    assert evaluate("p1 * p1") == mul(M(1), M(1))
    assert evaluate("h2") == complete_h(2)
    assert evaluate("1 .2. 1") == M(2)
    assert evaluate("3/2*M[2] + M[1,1]") == scale(Fraction(3, 2), M(2)) + M(1, 1)
    assert evaluate("-M[2]") == -M(2)
    assert evaluate("Mt[1,1]") == M(1, 1) + M(2)
    assert evaluate("M[2] ^3^ 1") == hat_bullet(3, M(2), one())


def test_print_parse_round_trip():
    elems = [
        mul(M(1), M(2, 1)),
        bullet(2, M(1), M(3)) - 3 * M(2),
        complete_h(4),
        evaluate("3/2*M[2] + M[1,1] - 5*M[3]"),
    ]
    for e in elems:
        assert evaluate(format_elem(e)) == e


# -- subcommands ----------------------------------------------------------

def run_cli(*argv):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_eval():
    code, out, _ = run_cli("eval", "p1 * p1")
    assert code == 0
    assert out == "M[2] + 2*M[1,1]\n"


def test_cli_eval_parse_error_exit_2():
    code, _, err = run_cli("eval", "p1 * p1 .1. p1")
    assert code == 2
    assert "parenthes" in err


def test_cli_expand():
    code, out, _ = run_cli("expand", "--vars", "2", "1 .1. 1")
    assert code == 0
    assert out == "x1 + x2\n"
    code, out, _ = run_cli("expand", "--vars", "3", "M[2,1]")
    assert out == "x1^2*x2 + x1^2*x3 + x2^2*x3\n"


def test_cli_convert():
    code, out, _ = run_cli("convert", "--to", "F", "M[1,1] + M[2]")
    assert code == 0
    assert out == "F[2]\n"
    code, out, _ = run_cli("convert", "--to", "Mt", "M[2] + M[1,1]")
    assert out == "Mt[1,1]\n"


def test_cli_coproduct():
    code, out, _ = run_cli("coproduct", "M[2,1]")
    assert code == 0
    assert out == "1 (x) M[2,1]\nM[2] (x) M[1]\nM[2,1] (x) 1\n"


def test_cli_antipode():
    code, out, _ = run_cli("antipode", "M[2,1]")
    assert code == 0
    assert out == "M[3] + M[1,2]\n"


def test_cli_kp():
    code, out, _ = run_cli("kp", "--m", "1", "--n", "2")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run_cli("kp", "--m", "2", "--n", "1", "--certify", "5")
    assert code == 0
    assert "oracle certification @N=5: PASS" in out


def test_cli_kp_pde():
    code, out, _ = run_cli("kp", "--m", "1", "--n", "2", "--pde")
    assert code == 0
    assert (
        "4*phi_{t1,t3} - 3*phi_{t2,t2} - phi_{t1,t1,t1,t1}"
        " + 6*phi_{t1}*phi_{t2} - 6*phi_{t1}*phi_{t1,t1}"
        " - 6*phi_{t2}*phi_{t1} - 6*phi_{t1,t1}*phi_{t1} = 0" in out
    )


def test_cli_qss_verify():
    code, out, _ = run_cli("qss-verify", "--N", "3", "--suite", "kp")
    assert code == 0
    assert "qss-kp: 1/1 passed" in out
    code, out, _ = run_cli("qss-verify", "--N", "3", "--suite", "cancel")
    assert code == 0
    code, out, _ = run_cli("qss-verify", "--N", "5", "--suite", "closure")
    assert code == 0


def test_cli_verify_suite():
    code, out, _ = run_cli("verify", "kp", "--max", "3")
    assert code == 0
    assert "kp: 9/9 passed" in out


def test_cli_verify_flags_reach_acceptance_bounds():
    code, out, _ = run_cli("verify", "lemma-iter", "--max-weight", "4", "--max-k", "3")
    assert code == 0
    assert "lemma-iter: 2304/2304 passed" in out
    code, out, _ = run_cli("verify", "antipode", "--max-weight", "5")
    assert code == 0
    assert "antipode: 32/32 passed" in out


def test_cli_verify_json():
    code, out, _ = run_cli("verify", "kp-classical", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(obj["status"] == "pass" for obj in lines)
    assert {obj["suite"] for obj in lines} == {"kp-classical"}


def test_cli_verify_unknown_suite_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "nonsense")
    assert exc.value.code == 2


def test_cli_verify_failure_exit_1(monkeypatch):
    import quasisym.cli as cli

    monkeypatch.setitem(cli.SUITES, "kp", (lambda mw, mk: [("rigged case", False)], 3))
    code, out, _ = run_cli("verify", "kp")
    assert code == 1
    assert "FAIL kp: rigged case" in out
    assert "kp: 0/1 passed" in out
    code, out, _ = run_cli("verify", "kp", "--json")
    assert code == 1
    assert json.loads(out.splitlines()[0])["status"] == "fail"


def test_cli_failure_prints_its_residual(monkeypatch):
    from quasisym import products

    # o_k without its merge term: 1 o_1 1 keeps M[1] but 1 o_2 1 = M[2] is lost
    def no_merge(k, A, B):
        yield (*A, k, *B)

    monkeypatch.setattr(products, "_bullet_words", no_merge)
    code, out, _ = run_cli("verify", "lemma-iter", "--max", "1", "--max-k", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == ["FAIL lemma-iter: iter M[] M[] k=1 l=1", "  lhs - rhs = -M[2] (1 term)"]
    assert lines[-1] == "lemma-iter: 0/4 passed"
    # the JSON records keep their schema: no residual field
    code, out, _ = run_cli("verify", "lemma-iter", "--max", "1", "--max-k", "1", "--json")
    assert code == 1
    assert json.loads(out.splitlines()[0]) == {
        "case": "iter M[] M[] k=1 l=1", "status": "fail", "suite": "lemma-iter"}


def test_residual_shows_three_terms_and_the_count():
    from quasisym.suites import Residual, decide

    assert decide(("same", M(1), M(1))) is True
    assert decide(("own verdict", False)) is False
    verdict = decide(("differs", M(1) + M(2) - 2 * M(1, 1) + M(3), M(1)))
    assert isinstance(verdict, Residual) and not verdict
    assert verdict.diff == M(2) - 2 * M(1, 1) + M(3)
    assert str(verdict) == "M[2] - 2*M[1,1] + M[3] (3 terms)"
    assert str(decide(("", M(4) + M(1, 1) + M(2) + M(3), 0 * M(1)))) == (
        "M[2] + M[1,1] + M[3] + ... (4 terms)")


@pytest.mark.parametrize("argv", [
    ("verify", "kp", "--max", "-1"),
    ("verify", "newton", "--max", "-2"),
    ("verify", "lemma-iter", "--max-k", "0"),
    ("verify", "bullet-oracle", "--max-k", "-1"),
    ("kp", "--m", "3", "--n", "3", "--certify", "1"),
    ("kp", "--m", "1", "--n", "2", "--certify", "3"),
], ids=" ".join)
def test_cli_bound_below_its_least_exit_2(argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert "must be an integer >=" in err
    assert out == ""


def test_cli_verify_with_no_case_fails():
    code, out, _ = run_cli("verify", "qss-closure", "--max", "1")
    assert code == 1
    assert out == "FAIL qss-closure: no case at these bounds\nqss-closure: 0/0 passed\n"
    code, out, _ = run_cli("verify", "qss-closure", "--max", "1", "--json")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_cli_domain_error_exit_2():
    code, _, err = run_cli("expand", "--vars", "0", "1")
    assert code == 2
    assert "variable count must be an integer >= 1" in err


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "quasisym.cli", "eval", "1 .2. 1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "M[2]\n"
