import argparse
import json
import resource
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from quasisym.cli import COMMANDS, ParseError, _parse_argv, _plain, _tokenize, evaluate, main, parse
from quasisym.composition import Composition
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
    with pytest.raises(ParseError) as err:
        parse("M[1] M[2]")
    assert err.value.pos == 5
    with pytest.raises(ParseError):
        parse("M[0]")
    with pytest.raises(ParseError):
        parse("(M[2]")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("1/0")


class ReferenceParser:
    """The earlier parser, kept as a reference: a product chain collects
    every operator and operand first and is checked afterwards."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        node = self.sum()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return node

    def sum(self):
        kind, value, pos = self.peek()
        negate = False
        if kind == "op" and value == "-":
            self.take()
            negate = True
        node = self.product()
        if negate:
            node = ("neg", node)
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.product()
                node = ("add" if value == "+" else "sub", node, rhs)
            else:
                return node

    def product(self):
        operands = [self.atom()]
        ops = []
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.take()
                ops.append(("mul", None, pos))
            elif kind == "bullet":
                self.take()
                ops.append(("bullet", int(value[1:-1]), pos))
            elif kind == "hat":
                self.take()
                ops.append(("hat", int(value[1:-1]), pos))
            else:
                break
            operands.append(self.atom())
        if not ops:
            return operands[0]
        if any(op[0] != "mul" for op in ops) and len(ops) > 1:
            raise ParseError("product chains mixing '*' with '.k.'/'^k^', or chaining "
                             "'.k.'/'^k^', need explicit parentheses: these products are "
                             "not associative", ops[1][2])
        if ops[0][0] == "mul":
            node = operands[0]
            for rhs in operands[1:]:
                node = ("mul", node, rhs)
            return node
        kind, k, _ = ops[0]
        return (kind, k, operands[0], operands[1])

    def atom(self):
        kind, value, pos = self.take()
        if kind == "number":
            if "/" in value:
                num, den = value.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", pos)
                q = Fraction(int(num), int(den))
                return ("num", q.numerator, q.denominator)
            return ("num", int(value), 1)
        if kind == "named":
            return ("named", value[0], int(value[1:]))
        if kind == "atom":
            name = value[: value.index("[")]
            inner = value[value.index("[") + 1 : -1].strip()
            if inner:
                try:
                    comp = Composition(tuple(int(p) for p in inner.split(",")))
                except ValueError as exc:
                    raise ParseError(str(exc), pos) from None
            else:
                comp = Composition()
            return ("basis", name, comp)
        if kind == "op" and value == "(":
            node = self.sum()
            kind, value, pos = self.take()
            if not (kind == "op" and value == ")"):
                raise ParseError("expected ')'", pos)
            return node
        raise ParseError(f"expected an atom, got {value!r}" if value else "unexpected end of input",
                         pos)


def outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return exc


WORDS = ("M[1]", "Mt[]", "F[2,1]", "M[0]", "h2", "p1", "1", "3/2", "1/0",
         "*", "+", "-", "(", ")", ".1.", ".2.", "^2^", "$")
OPERANDS = ("M[1]", "Mt[]", "F[2,1]", "h2", "p1", "1", "3/2", "(1 - p1)", "(h2 .1. 1)")
OPERATORS = ("*", "+", "-", ".1.", "^2^")
# any words, or operands joined by operators, which the parser accepts more often
token_strings = st.one_of(
    st.lists(st.sampled_from(WORDS), max_size=12),
    st.builds(lambda first, rest: [first, *(w for pair in rest for w in pair)],
              st.sampled_from(OPERANDS),
              st.lists(st.tuples(st.sampled_from(OPERATORS), st.sampled_from(OPERANDS)),
                       max_size=5)),
)


@given(token_strings, st.sampled_from(("", " ")))
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
def test_parser_agrees_with_the_reference(words, sep):
    text = sep.join(words)
    got = outcome(parse, text)
    want = outcome(lambda t: ReferenceParser(t).parse(), text)
    if isinstance(got, ParseError) or isinstance(want, ParseError):
        assert isinstance(got, ParseError) and isinstance(want, ParseError)
        if got.pos != want.pos:
            # the chain is reported where it turns illegal: before a later
            # fault, or at the '.k.'/'^k^' after a run of '*'
            assert "explicit parentheses" in str(got)
            assert got.pos < want.pos or text[want.pos] == "*" and text[got.pos] in ".^"
    else:
        assert got == want


@pytest.mark.parametrize("text, pos", [
    ("M[1]^2^h2^2^.2.", 9),  # the chain, before the missing atom at 12
    ("h2*M[1]*Mt[]*F[2,1]^2^p1", 19),  # the '^2^' after a run of '*'
    ("p1 * p1 .1. p1", 8),
    ("1 .1. 1 * 1", 8),
])
def test_chain_is_refused_where_it_turns_illegal(text, pos):
    with pytest.raises(ParseError, match="explicit parentheses") as err:
        parse(text)
    assert err.value.pos == pos


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


@pytest.mark.parametrize("expr", ["0", "M[1] - M[1]"])
def test_cli_coproduct_of_zero_prints_0(expr):
    assert run_cli("coproduct", expr) == (0, "0\n", "")


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


def test_cli_verify_max_is_a_spelling_of_max_weight():
    # one value: whichever spelling comes last sets it
    spellings = [("--max", "2"), ("--max-weight", "2"), ("--max-weight", "3", "--max", "2")]
    reports = {run_cli("verify", "kp", *flags) for flags in spellings}
    assert reports == {(0, "kp: 4/4 passed\n", "")}


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
    import quasisym.suites

    monkeypatch.setitem(quasisym.suites.SUITES, "kp", (lambda mw, mk: [("rigged case", False)], 3))
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


def test_a_hat_product_without_its_merge_fails_the_oracle(monkeypatch):
    from quasisym import products

    # o^_k without its merge term: M[1] o^_1 1 keeps M[1,1] but loses M[2]
    def no_merge(k, A, B):
        yield (*A, k, *B)

    monkeypatch.setattr(products, "_hat_words", no_merge)
    code, out, _ = run_cli("verify", "bullet-oracle", "--max", "1", "--max-k", "1")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL bullet-oracle: M[1] ^1^ M[] @N=10"]
    assert out.splitlines()[-1] == "bullet-oracle: 5/6 passed"


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
    ("kp", "--m", "-5", "--n", "40"),
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


@pytest.mark.parametrize("expr, pos", [("M[1,]", 0), ("M[,]", 0), ("2 * M[1,,2]", 4)])
def test_an_empty_composition_part_is_a_parse_error(expr, pos):
    with pytest.raises(ParseError, match="the composition has an empty part") as err:
        parse(expr)
    assert err.value.pos == pos
    code, out, err = run_cli("eval", expr)
    assert (code, out) == (2, "")
    assert err == f"parse error at position {pos}: the composition has an empty part\n"


def test_cli_refuses_an_exponent_past_the_monomial_width():
    # 2**31 is LIMIT: the first exponent a packed monomial cannot hold
    code, out, err = run_cli("expand", "--vars", "1", "M[2147483648]")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert run_cli("expand", "--vars", "1", "M[2147483647]") == (0, "x1^2147483647\n", "")


ONES = ",".join(["1"] * 26)
PAST_THE_CEILING = [
    (("expand", "--vars", "1", "F[2147483648]"), "F[2147483648]", 2147483647, 24),
    (("eval", "h40"), "h40", 39, 24),
    (("eval", f"M[1] + Mt[{ONES}]"), f"Mt[{ONES}]", 25, 24),
    (("convert", "--to", "F", "F[2,30]"), "F[2,30]", 30, 24),
    (("kp", "--m", "12", "--n", "13"), "h12 h14", 25, 18),  # h_m h_{n+1}: 2^(m+n) words
]


@pytest.mark.parametrize("argv, atom, log2, ceiling", PAST_THE_CEILING,
                         ids=[" ".join(argv) for argv, *_ in PAST_THE_CEILING])
def test_cli_refuses_an_atom_past_the_ceiling_before_building_it(argv, atom, log2, ceiling):
    # in a child with a short timeout: building any of these atoms would not end
    proc = subprocess.run([sys.executable, "-m", "quasisym.cli", *argv],
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: {atom} has 2^{log2} terms in the M basis, "
                           f"more than the ceiling of 2^{ceiling}\n")


ONES_40 = ",".join(["1"] * 40)
OUTPUTS_PAST_THE_CEILING = [
    (("convert", "--to", "F", "M[40]"), "M[40] has 2^39 terms in the F basis"),
    (("convert", "--to", "F", "p26 + M[1]"), "M[26] has 2^25 terms in the F basis"),
    (("convert", "--to", "Mt", f"M[{ONES_40}]"), f"M[{ONES_40}] has 2^39 terms in the Mt basis"),
    (("antipode", f"M[{ONES_40}]"), f"S(M[{ONES_40}]) has 2^39 terms in the M basis"),
    (("antipode", f"2*M[{ONES}] - M[3]"), f"S(M[{ONES}]) has 2^25 terms in the M basis"),
]


@pytest.mark.parametrize("argv, message", OUTPUTS_PAST_THE_CEILING,
                         ids=[" ".join(argv)[:40] for argv, _ in OUTPUTS_PAST_THE_CEILING])
def test_cli_refuses_an_output_past_the_ceiling_before_building_it(argv, message):
    # M[C] has as many terms in a basis as that basis's [C] has in M, and
    # S(M[C]) is +-Mt[reversed C]; in a child, as building any of these would not end
    proc = subprocess.run([sys.executable, "-m", "quasisym.cli", *argv],
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}, more than the ceiling of 2^24\n"


def _address_space(megabytes):
    """A preexec_fn that caps a child's address space."""
    limit = megabytes * 2**20
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


_small_address_space = _address_space(300)


def _fields(nvars, count):
    return (f"the expansion in {nvars} variables has {count} monomials of {nvars} exponents, "
            "more than the ceiling of 2^24 exponents")


EXPANSIONS_PAST_THE_CEILING = [
    (("expand", "--vars", "60", "M[1,1,1,1,1,1,1,1]"), _fields(60, 2558620845)),
    (("expand", "--vars", "4097", "M[1] + M[2,3] - 1/2*M[1,1]"), _fields(4097, 4097 + 2 * 8390656)),
    # few monomials, each of N exponent fields: 31.9M, 256M and 4097^2 fields
    (("expand", "--vars", "400", "M[1,1]"), _fields(400, 79800)),
    (("expand", "--vars", "800", "M[1,1]"), _fields(800, 319600)),
    (("expand", "--vars", "4097", "M[1]"), _fields(4097, 4097)),
]


@pytest.mark.parametrize("argv, message", EXPANSIONS_PAST_THE_CEILING,
                         ids=[" ".join(argv)[:40] for argv, _ in EXPANSIONS_PAST_THE_CEILING])
def test_cli_refuses_an_expansion_past_the_ceiling_before_building_it(argv, message):
    # M[C] has C(N, len C) monomials in N variables, and no two words share one;
    # in a child with little memory, as building any of these expansions would not end
    proc = subprocess.run([sys.executable, "-m", "quasisym.cli", *argv], capture_output=True,
                          text=True, timeout=20, preexec_fn=_small_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("nvars, expr", [(300, "M[1,1]"), (4096, "M[1]")])
def test_expansions_at_most_the_field_ceiling_are_admitted(monkeypatch, capsys, nvars, expr):
    # 13.5M fields, and exactly 2^24; the stub builds nothing
    import quasisym.oracle

    monkeypatch.setattr(quasisym.oracle, "expand", lambda a, n: f"{n} variables")
    assert main(["expand", "--vars", str(nvars), expr]) == 0
    assert capsys.readouterr() == (f"'{nvars} variables'\n", "")


KP_PAST_THE_CEILING = [
    (("kp", "--m", "10", "--n", "9"), "h10 h10 has 2^19 terms in the M basis, "
     "more than the ceiling of 2^18"),
    (("kp", "--m", "2", "--n", "3", "--certify", "40"), "the certification in 40 variables "
     "counts 8145060 monomials of degree 6, more than the ceiling of 2^20"),
    (("kp", "--m", "1", "--n", "2", "--certify", "80"), "the certification in 80 variables "
     "counts 1837620 monomials of degree 4, more than the ceiling of 2^20"),
    (("qss-verify", "--N", "25", "--suite", "kp"),
     "the qss kp identity at N=25 is past the ceiling of N=24"),
    (("qss-verify", "--N", "40"), "the qss kp identity at N=40 is past the ceiling of N=24"),
]


@pytest.mark.parametrize("argv, message", KP_PAST_THE_CEILING,
                         ids=[" ".join(argv) for argv, _ in KP_PAST_THE_CEILING])
def test_cli_refuses_a_kp_command_past_its_ceiling_before_building_it(argv, message):
    # in a child with little memory: each of these runs for seconds to minutes
    proc = subprocess.run([sys.executable, "-m", "quasisym.cli", *argv], capture_output=True,
                          text=True, timeout=20, preexec_fn=_small_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


REFUSED_BEFORE_BUILDING = [
    (("kp", "--m", "15", "--n", "1", "--certify", "9"), "an integer >= 17, got 9"),
    (("kp", "--m", "8", "--n", "9", "--certify", "5"), "an integer >= 18, got 5"),
    (("expand", "--vars", "0", "h23"), "an integer >= 1, got 0"),
]


@pytest.mark.parametrize("argv, message", REFUSED_BEFORE_BUILDING,
                         ids=[" ".join(argv) for argv, _ in REFUSED_BEFORE_BUILDING])
def test_a_bad_variable_count_is_refused_before_anything_is_built(argv, message):
    # building kp's member or h23 first takes seconds and runs out of 100 MB
    proc = subprocess.run([sys.executable, "-m", "quasisym.cli", *argv], capture_output=True,
                          text=True, timeout=5, preexec_fn=_address_space(100))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: variable count must be {message}\n")


@pytest.mark.parametrize("m, n, nvars", [(4, 5, 11), (1, 2, 50), (5, 5, 12), (1, 2, 60), (1, 2, 69)])
def test_certifications_under_the_monomial_ceiling_are_admitted(monkeypatch, capsys, m, n, nvars):
    # 184,756, 292,825, 705,432, 595,665 and 1,028,790 monomials, at most 2^20 (N = 70 passes
    # it); the stub certifies nothing
    import quasisym.kp

    calls = []
    monkeypatch.setattr(quasisym.kp, "certify_kp", lambda *args: calls.append(args) or True)
    assert main(["kp", "--m", str(m), "--n", str(n), "--certify", str(nvars)]) == 0
    assert calls == [(m, n, nvars)]
    assert capsys.readouterr().out.endswith(f"oracle certification @N={nvars}: PASS\n")


def test_the_largest_admitted_certification_is_counted_in_little_time_and_memory():
    # m + n = 10 is the largest sum admitted at N >= m + n + 1, and N = 12 the largest N for it:
    # 705,432 monomials, 1.0 s and 15 MB cold on a 2-core VM.  The dense products that counting
    # replaced took 6-11 s and 154 MB at (4, 5, 11), and fail under 100 MB
    proc = subprocess.run([sys.executable, "-m", "quasisym.cli", "kp", "--m", "5", "--n", "5",
                           "--certify", "12"], capture_output=True, text=True, timeout=10,
                          preexec_fn=_address_space(100))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "kp m=5 n=5: PASS\noracle certification @N=12: PASS\n", "")


PRODUCTS_PAST_THE_CEILING = [
    (("eval", "h13 * h13"), "*", 2**25),  # one weight pair, 26: 2^25 words
    (("eval", "h13 .1. h13"), ".1.", 2**25),  # 2 * 4096 * 4096 pairs
    (("eval", "h13 ^2^ h13"), "^2^", 2**25),
    (("eval", "M[1] + h13 * h13 * M[2]"), "*", 2**25),  # the first factor of the chain
    (("convert", "--to", "F", "(h12 + h13) * h13"), "*", 2**24 + 2**25),  # weights 25 and 26
    (("eval", "(1 + h13) .1. h13"), ".1.", 2 * 4097 * 4096),  # the unit pair adds 2^13 terms
]


@pytest.mark.parametrize("argv, op, bound", PRODUCTS_PAST_THE_CEILING,
                         ids=[" ".join(argv) for argv, *_ in PRODUCTS_PAST_THE_CEILING])
def test_cli_refuses_a_product_past_the_ceiling_before_building_it(argv, op, bound):
    # in a child with little memory: each product would take minutes and gigabytes
    proc = subprocess.run([sys.executable, "-m", "quasisym.cli", *argv], capture_output=True,
                          text=True, timeout=20, preexec_fn=_small_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: the product {op} can have {bound} terms in the M basis, "
                           "more than the ceiling of 2^24\n")


@pytest.mark.parametrize("expr", ["h6 * h5", "M[20] * M[20]", "M[2147483648] * M[2147483648]",
                                  "h13 * 2", "M[100] .1. M[100]", "M[30,30] ^3^ (1 + M[2])"])
def test_cli_builds_products_under_the_ceiling(expr):
    # few terms, most of them of a weight far past the ceiling's
    proc = subprocess.run([sys.executable, "-m", "quasisym.cli", "eval", expr], capture_output=True,
                          text=True, timeout=20, preexec_fn=_small_address_space)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == format_elem(evaluate(expr)) + "\n"


def test_the_product_bounds_at_the_ceiling():
    from quasisym.cli import _quasi_shuffle_words, _refuse_product

    h8, h12, h13 = complete_h(8), complete_h(12), complete_h(13)
    _refuse_product("*", h8, h8, 0, _quasi_shuffle_words(h8, h8))  # 2^15 words, as computed
    _refuse_product("*", h12, h13, 0, _quasi_shuffle_words(h12, h13))  # 2^24 words: admitted
    with pytest.raises(ValueError, match="can have 33554432 terms"):
        _refuse_product("*", h13, h13, 0, _quasi_shuffle_words(h13, h13))
    _refuse_product(".1.", h12, h12, 1, 2 * 2048 * 2048)  # weight 25: 2^24 words
    # D(l, m) counts the words of one quasi-shuffle, as the kernel lists them
    for a, b in [((1,), (1,)), ((2, 1), (1, 3)), ((1, 1, 1), (2, 2)), ((), (4, 1))]:
        assert _quasi_shuffle_words(monomial("M", a), monomial("M", b)) == sum(
            mul(monomial("M", a), monomial("M", b)).nums.values())


def test_certify_counts_the_monomials_of_the_identity_degree():
    # C(N+d-1, d): the monomials of degree d in N variables, one per term of e(h_d)
    from quasisym.oracle import expand

    for d, nvars in [(3, 3), (4, 4), (4, 5), (5, 6), (6, 7), (6, 2)]:
        assert comb(nvars + d - 1, d) == len(expand(complete_h(d), nvars).nums)


def _old_certify_admits(m, n, nvars):
    """The refusal that counted the monomial pairs of the dense left side
    e(h_m) e(h_{n+1}) - e(h_{m+1}) e(h_n): 2^25 pairs and 2^28 pairs x N fields."""
    e = lambda d: comb(max(nvars, 0) + d - 1, d)
    pairs = e(m) * e(n + 1) + e(m + 1) * e(n)
    return pairs <= 1 << 25 and pairs * nvars <= 1 << 28


def test_certify_refuses_no_member_that_the_pair_rule_admitted(monkeypatch, capsys):
    # every member kp admits, at every N up to the pair rule's first refusal; stubs build nothing
    import quasisym.kp

    monkeypatch.setattr(quasisym.kp, "kp_identity", lambda m, n: (0, 0))
    monkeypatch.setattr(quasisym.kp, "certify_kp", lambda m, n, nvars: True)
    admitted = 0
    for m, n in ((m, s - m) for s in range(2, 19) for m in range(1, s)):
        nvars, d = 0, m + n + 1
        while _old_certify_admits(m, n, nvars):
            argv = ["kp", "--m", str(m), "--n", str(n), "--certify", str(nvars)]
            if nvars < d:  # below the degree, which the real certify_kp refused too
                assert main(argv) == 2
                assert capsys.readouterr().err == (
                    f"error: variable count must be an integer >= {d}, got {nvars}\n")
            else:
                assert main(argv) == 0
                admitted += 1
            nvars += 1
    assert capsys.readouterr().err == "" and admitted > 500  # 580


def test_atoms_below_the_ceiling_or_with_one_term_are_built():
    assert run_cli("eval", "M[2147483648]") == (0, "M[2147483648]\n", "")
    assert run_cli("eval", "p40 - M[40]") == (0, "0\n", "")
    assert run_cli("eval", "F[2147483648] - F[2147483648]")[0] == 2
    # the ceiling counts terms: F[C] has 2^(|C| - len C), Mt[C] 2^(len C - 1)
    code, out, _ = run_cli("eval", "F[" + ",".join(["1"] * 40) + "] - Mt[5]")
    assert code == 0 and out.count("M[") == 2


@pytest.mark.parametrize("argv", [
    ("eval", "-M[2]"),
    ("eval", "-1/2*M[2] + M[1]"),
    ("expand", "--vars", "2", "-M[1]"),
    ("convert", "--to", "F", "-M[1,1]"),
    ("coproduct", "-M[2,1]"),
    ("antipode", "-M[2,1]"),
], ids=" ".join)
def test_cli_expression_may_start_with_minus(argv):
    # a word that starts with one '-' is an argument, never an option
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert (code, out) == run_cli(*argv[:-1], "0 " + argv[-1])[:2]


@pytest.mark.parametrize("argv", [
    ("eval", "-h2"),
    ("expand", "--vars", "2", "-h2"),
    ("convert", "--to", "F", "-h2"),
    ("coproduct", "-h2"),
    ("antipode", "-h2*M[1]"),
], ids=" ".join)
def test_cli_expression_may_start_with_minus_h(argv):
    # only '-h' alone asks for help: '-h2' is the expression -h2
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert (code, out) == run_cli(*argv[:-1], "0 " + argv[-1])[:2]


def test_cli_eval_minus_h2():
    assert run_cli("eval", "-h2")[:2] == (0, "-M[2] - M[1,1]\n")
    assert run_cli("eval", "--", "-h2")[:2] == (0, "-M[2] - M[1,1]\n")


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", ["eval", "expand", "convert", "coproduct", "antipode"])
def test_cli_help_alone_still_prints_help(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: quasisym {command} ")


def test_cli_reads_back_what_it_prints():
    _, printed, _ = run_cli("eval", "0 - M[2]")
    assert printed == "-M[2]\n"
    assert run_cli("eval", printed.strip())[:2] == (0, printed)


@pytest.mark.parametrize("expr, expected", [
    ("*".join(["1"] * 3000), (0, "1\n")),  # a '*' chain is walked in a loop, like a sum
    ("(" * 400 + "M[1]" + ")" * 400, (2, "")),
], ids=["a long product", "nested parentheses"])
def test_an_expression_too_deep_to_walk_exits_2(expr, expected):
    code, out, err = run_cli("eval", expr)
    assert (code, out) == expected
    assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1


def test_a_sum_of_any_length_evaluates():
    # a '+'/'-' chain is walked in a loop, not one call deeper per term
    assert run_cli("eval", "+".join(["M[1]"] * 3000)) == (0, "3000*M[1]\n", "")
    assert run_cli("eval", "-".join(["M[1]"] * 3000) + " + 1/2")[:2] == (0, "1/2 - 2998*M[1]\n")


def test_running_out_of_memory_exits_2(monkeypatch):
    import quasisym.cli

    def out_of_memory(text):
        raise MemoryError

    monkeypatch.setattr(quasisym.cli, "evaluate", out_of_memory)
    assert run_cli("eval", "M[1]") == (2, "", "error: MemoryError\n")


def test_a_command_that_runs_out_of_memory_exits_2():
    # h8 h10 is under kp's ceiling, but not under 100 MB: the error line is written once
    # the failed call's frames and the memos are freed, so the report itself has memory
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-m", "quasisym.cli", "kp", "--m", "8", "--n", "9",
                               "--pde"], capture_output=True, text=True, timeout=60,
                              preexec_fn=_address_space(100))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: MemoryError\n")


@pytest.mark.parametrize("argv", [
    ("eval",),
    ("eval", "-M[2]", "-M[1]"),
    ("eval", "M[2]", "-x"),
    ("convert", "--to", "F"),
    ("kp", "--m", "1", "--n", "2", "-x"),
], ids=" ".join)
def test_cli_missing_or_extra_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


# -- argv -----------------------------------------------------------------
# The argparse parser the CLI used before it read any argv itself, kept as
# the reference for `_parse_argv`: both must read every argv below alike.
# `_parse_argv` reads the plain spelling itself (`_plain`) and builds its
# argparse parser from `cli.COMMANDS` for every other argv, so the
# reference also checks that the table and the fast path say the same.

class ReferenceCommandParser(argparse.ArgumentParser):
    """Every option of a command is long but -h, so any other word that
    starts with one '-' is an argument."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


class ReferenceSuiteNames:
    def __iter__(self):
        from quasisym.suites import SUITES

        return iter(sorted(SUITES) + ["all"])

    def __contains__(self, name):
        return name in list(self)


def reference_argv_parser():
    parser = argparse.ArgumentParser(prog="quasisym")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=ReferenceCommandParser)
    for name in ("eval", "coproduct", "antipode"):
        sub.add_parser(name).add_argument("expr")
    p_expand = sub.add_parser("expand")
    p_expand.add_argument("--vars", type=int, required=True, metavar="N")
    p_expand.add_argument("expr")
    p_convert = sub.add_parser("convert")
    p_convert.add_argument("--to", choices=("M", "Mt", "F"), required=True)
    p_convert.add_argument("expr")
    p_kp = sub.add_parser("kp")
    p_kp.add_argument("--m", type=int, required=True)
    p_kp.add_argument("--n", type=int, required=True)
    p_kp.add_argument("--pde", action="store_true")
    p_kp.add_argument("--certify", type=int, metavar="N")
    p_qss = sub.add_parser("qss-verify")
    p_qss.add_argument("--N", type=int, required=True, dest="nvars")
    p_qss.add_argument("--suite", choices=("kp", "cancel", "closure"), default="kp")
    p_qss.add_argument("--json", action="store_true")
    p_verify = sub.add_parser("verify")
    p_verify.add_argument("suite", choices=ReferenceSuiteNames(), metavar="suite")
    p_verify.add_argument("--max-weight", "--max", dest="max_weight", type=int, default=None)
    p_verify.add_argument("--max-k", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")
    return parser


def read_argv(parse, argv):
    """The fields that parse reads from argv, or the code it exits with."""
    import io
    from contextlib import redirect_stdout, redirect_stderr

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code


ARGVS_READ = [
    ("eval", "M[1]"),
    ("eval", "-M[2]"),
    ("eval", "-h2"),
    ("eval", "-"),
    ("eval", ""),
    ("eval", "--x y"),  # a '--' word that is no option and holds a space
    ("eval", "--", "-h2"),
    ("eval", "--", "--"),
    ("eval", "M[1]", "--"),
    ("expand", "--vars", "3", "M[2,1]"),
    ("expand", "M[2,1]", "--vars", "3"),
    ("expand", "--vars=3", "M[1]"),
    ("expand", "--va", "3", "M[1]"),
    ("expand", "--vars", "-1", "M[1]"),
    ("expand", "--vars", " +7 ", "M[1]"),
    ("expand", "--vars", "2", "--", "-M[1]"),
    ("expand", "--vars", "2", "M[1]", "--"),
    ("convert", "--to", "F", "M[1,1]"),
    ("convert", "--to=Mt", "-M[1]"),
    ("convert", "--t", "M", "M[1]"),
    ("convert", "--t=M", "--", "-h2"),
    ("coproduct", "M[2,1]"),
    ("antipode", "-h2*M[1]"),
    ("kp", "--m", "1", "--n", "2"),
    ("kp", "--n", "2", "--m", "1", "--pde", "--certify", "5"),
    ("kp", "--m", "1", "--n", "2", "--cert", "5"),
    ("kp", "--m=1", "--n=2", "--p"),
    ("kp", "--m", "1", "--n", "2", "--m", "3"),
    ("qss-verify", "--N", "3"),
    ("qss-verify", "--N", "3", "--suite", "closure", "--json"),
    ("qss-verify", "--json", "--s=cancel", "--N=2"),
    ("verify", "kp"),
    ("verify", "all", "--json"),
    ("verify", "--json", "kp"),
    ("verify", "kp", "--max", "-1"),
    ("verify", "kp", "--max", "2", "--max-weight", "3"),
    ("verify", "kp", "--max-weight", "3", "--max", "2"),
    ("verify", "kp", "--max-w", "2", "--max-k", "1"),
    ("verify", "kp", "--max-k=3", "--j"),
    ("verify", "--", "kp"),
    ("verify", "--json", "--", "kp"),
    # help: exit 0
    ("-h",),
    ("--help",),
    ("--he",),
    ("eval", "-h"),
    ("eval", "--help"),
    ("eval", "--h"),
    ("convert", "-h"),
    ("verify", "-h", "no-such-suite"),
    ("eval", "a", "b", "-h"),
    ("eval", "--bogus", "-h"),
    ("kp", "-h", "--m", "x"),
    # usage errors: exit 2
    (),
    ("no-such-command",),
    ("--", "eval", "M[1]"),
    ("-x", "eval", "M[1]"),
    ("--help=1",),
    ("eval",),
    ("eval", "a", "b"),
    ("eval", "-M[2]", "-M[1]"),
    ("eval", "M[2]", "--bogus"),
    ("eval", "--bogus=1", "M[2]"),
    ("eval", "--"),
    ("eval", "--", "a", "b"),
    ("eval", "-h=1"),
    ("expand", "--vars", "x", "M[1]"),
    ("expand", "--vars", "M[1]"),
    ("expand", "M[1]", "--vars"),
    ("expand", "--vars", "--", "2", "M[1]"),
    ("expand", "--vars", "-h", "M[1]"),
    ("expand", "--vars", "2", "--", "-M[1]", "--vars", "3"),
    ("expand", "M[1]", "--vars", "2", "--"),
    ("convert", "--to", "G", "M[1]"),
    ("convert", "--to", "F"),
    ("convert", "M[1]"),
    ("kp", "--m", "1", "--n", "2", "-x"),
    ("kp", "--m", "1", "--n", "2", "--pde=1"),
    ("kp", "--m", "1", "--n", "2", "--"),
    ("kp", "--m", "1"),
    ("kp", "--m", "1", "--n", "2", "--help=1"),
    ("kp", "--m", "x", "-h"),
    ("qss-verify", "--N", "3", "--suite", "nope"),
    ("qss-verify", "--N", "3", "--suite"),
    ("qss-verify", "--n", "3"),
    ("verify", "no-such-suite"),
    ("verify", "no-such-suite", "-h"),
    ("verify", "kp", "--ma", "2"),
    ("verify", "-h", "--max-", "2"),
    ("verify", "kp", "--json", "--"),
    ("verify", "kp", "--max", "2.5"),
    ("verify",),
    ("verify", "kp", "all"),
    ("verify", "kp", "--", "--max=2"),
]


@pytest.mark.parametrize("argv", ARGVS_READ, ids=lambda argv: " ".join(argv) or "(none)")
def test_argv_is_read_as_the_reference_reads_it(argv):
    assert read_argv(_parse_argv, argv) == read_argv(reference_argv_parser().parse_args, argv)


EXPRESSIONS = st.sampled_from(["M[1]", "-M[2]", "-h2", "-h2*M[1]", "-", "", "-1", "h2 - 1/2*p2"])
INTS = st.one_of(st.integers(0, 30).map(str), st.sampled_from([" 7 ", "+3", "007"]))
BAD_VALUES = ("x", "2.5", "G")  # no int, and no choice of any option or argument
NOISE = st.sampled_from(["M[1]", "-M[1]", "--json", "--pde", "--vars", "--to", "F", "3", "x"])


@st.composite
def plain_argvs(draw):
    """(argv, whether it is whole: every required word there, every value
    valid): a command, each of its options zero to two times, spelled exactly
    with an int or choice value or none, and its argument, in any order; now
    and then one word more, one fewer or one replaced."""
    command = draw(st.sampled_from(list(COMMANDS)))
    _, positionals, options = COMMANDS[command]
    groups, whole = [], True
    for flag, (_, kind, default) in options.items():
        count = draw(st.integers(0, 2))
        whole &= count > 0 or default is not ...
        for _ in range(count):
            if kind is None:
                groups.append([flag])
                continue
            value = draw(st.one_of(INTS if kind is int else st.sampled_from(kind),
                                   st.sampled_from(BAD_VALUES)))
            whole &= value not in BAD_VALUES
            groups.append([flag, value])
    for kind in positionals.values():
        value = draw(st.sampled_from([*kind(), *BAD_VALUES]) if kind else EXPRESSIONS)
        whole &= value not in BAD_VALUES
        groups.append([value])
    words = [w for group in draw(st.permutations(groups)) for w in group]
    change, i = draw(st.sampled_from(["none", "none", "extra", "drop", "replace"])), draw(
        st.integers(0, len(words)))
    if change == "extra":
        words.insert(i, draw(NOISE))
    elif change != "none":
        words[i:i + 1] = [draw(NOISE)] if change == "replace" else []
    return [command, *words], whole and change == "none"


@given(plain_argvs())
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_the_plain_spelling_is_read_as_the_reference_reads_it(case):
    argv, whole = case
    got = _plain(argv)
    assert got is not None or not whole, argv
    if got is not None:
        assert vars(got) == read_argv(reference_argv_parser().parse_args, argv)


def test_a_usage_error_prints_the_usage_and_the_error(capsys):
    # an option's value is the next word only when that word is no option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "kp", "--max", "--json"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", (
        "usage: quasisym verify [-h] [--max-weight N] [--max N] [--max-k N] [--json] suite\n"
        "quasisym verify: error: argument --max: expected one argument\n"))


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "quasisym.cli", "eval", "1 .2. 1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "M[2]\n"


def test_a_lowered_bound_is_noted_on_stderr_and_stdout_is_unchanged():
    asked = run_cli("verify", "shuffle-oracle", "--max", "9")
    capped = run_cli("verify", "shuffle-oracle", "--max", "4")
    assert asked[:2] == capped[:2] == (0, "shuffle-oracle: 256/256 passed\n")
    assert asked[2] == "note: shuffle-oracle runs max weight 4, not the 9 asked\n"
    assert capped[2] == ""
    code, out, err = run_cli("verify", "weak-nonassoc", "--max", "5", "--max-k", "4")
    assert (code, out.splitlines()[-1]) == (0, "weak-nonassoc: 2048/2048 passed")
    assert err.splitlines() == ["note: weak-nonassoc runs max weight 2, not the 5 asked",
                                "note: weak-nonassoc runs max k 2, not the 4 asked"]


CAPPED_SUITES = [
    (("lemma-iter", "--max-k", "100"), "lemma-iter: 1024/1024 passed",
     ["max k 4, not the 100"]),
    (("lemma-iter", "--max", "100", "--max-k", "100"), "lemma-iter: 4096/4096 passed",
     ["max weight 4, not the 100", "max k 4, not the 100"]),
    (("antipode-F", "--max", "14"), "antipode-F: 1023/1023 passed", ["max weight 10, not the 14"]),
    (("f-rules", "--max", "16"), "f-rules: 2070/2070 passed", ["max weight 10, not the 16"]),
]


@pytest.mark.parametrize("argv, report, lowered", CAPPED_SUITES,
                         ids=[" ".join(argv) for argv, *_ in CAPPED_SUITES])
def test_a_suite_asked_past_its_cap_runs_at_the_cap(argv, report, lowered):
    # in a child with little memory: uncapped, each of these ran past 20 s
    proc = subprocess.run([sys.executable, "-m", "quasisym.cli", "verify", *argv],
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=_small_address_space)
    assert (proc.returncode, proc.stdout) == (0, report + "\n")
    assert proc.stderr.splitlines() == [f"note: {argv[0]} runs {what} asked" for what in lowered]


def test_verify_kp_runs_at_its_cap_of_max_weight_8(monkeypatch):
    import quasisym.suites

    ran = []
    monkeypatch.setitem(quasisym.suites.SUITES, "kp",
                        (lambda mw, mk: ran.append(mw) or [("stub case", True)], 3))
    assert run_cli("verify", "kp", "--max", "9") == (
        0, "kp: 1/1 passed\n", "note: kp runs max weight 8, not the 9 asked\n")
    assert run_cli("verify", "kp", "--max", "8") == (0, "kp: 1/1 passed\n", "")
    assert ran == [8, 8]


def test_verify_all_at_its_default_bounds_writes_nothing_to_stderr():
    from quasisym.suites import SUITES

    code, out, err = run_cli("verify", "all")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == len(SUITES)
