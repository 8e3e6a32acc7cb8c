"""Command-line front end.

Subcommands: eval, expand, convert, coproduct, antipode, kp, qss-verify,
verify.  Exit codes: 0 all good, 1 an identity check failed, 2 usage or
parse errors.  All output is deterministic so reports can be diffed.

Expression grammar (whitespace insensitive):

    sum     := ['-'] product (('+' | '-') product)*
    product := atom ('*' atom)* | atom ('.k.' | '^k^') atom
    atom    := 'M[..]' | 'Mt[..]' | 'F[..]' | 'p<int>' | 'h<int>'
             | integer | 'a/b' | '(' sum ')'

'*' chains associate on the left.  '.k.' and '^k^' are not associative,
so a chain with one of them takes no further product operator: longer
chains need explicit parentheses.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

# Only what parsing and evaluating an expression needs is imported here:
# every other module, json included, is imported by the branch that runs
# it, because a module is compiled from source in each process whenever
# its bytecode cannot be cached.
from quasisym.composition import Composition
from quasisym.elements import QSymElem, format_elem, format_terms, monomial, one, scale, to_basis
from quasisym.products import bullet, hat_bullet, mul


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<atom>(?:Mt|M|F)\[[0-9,\s]*\])
  | (?P<named>[ph][0-9]+)
  | (?P<number>[0-9]+(?:/[0-9]+)?)
  | (?P<bullet>\.[0-9]+\.)
  | (?P<hat>\^[0-9]+\^)
  | (?P<op>[+\-*()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# AST: ("num", Fraction) ("basis", name, Composition) ("named", "p"|"h", int)
#      ("neg", node) ("add"/"sub", a, b) ("mul", a, b)
#      ("bullet", k, a, b) ("hat", k, a, b)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def take(self, kind=None, values=None):
        """The next token, consumed; None, consuming nothing, if it is not of
        kind or its value is not one of values."""
        tok = self.tokens[self.i]
        if kind and tok[0] != kind or values and tok[1] not in values:
            return None
        self.i += 1
        return tok

    def parse(self):
        node = self.sum()
        kind, value, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return node

    def sum(self):
        node = ("neg", self.product()) if self.take("op", "-") else self.product()
        while tok := self.take("op", "+-"):
            node = ("add" if tok[1] == "+" else "sub", node, self.product())
        return node

    def product(self):
        """atom ('*' atom)* | atom ('.k.' | '^k^') atom; another product
        operator after the chain is refused at that operator."""
        node, chained = self.atom(), False
        while self.take("op", "*"):
            node, chained = ("mul", node, self.atom()), True
        if not chained and (tok := self.take("bullet") or self.take("hat")):
            node, chained = (tok[0], int(tok[1][1:-1]), node, self.atom()), True
        kind, value, pos = self.tokens[self.i]
        if chained and (kind in ("bullet", "hat") or value == "*"):
            raise ParseError(
                "product chains mixing '*' with '.k.'/'^k^', or chaining "
                "'.k.'/'^k^', need explicit parentheses: these products are "
                "not associative",
                pos,
            )
        return node

    def atom(self):
        kind, value, pos = self.take()
        if kind == "number":
            if "/" in value:
                num, den = value.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", pos)
                return ("num", Fraction(int(num), int(den)))
            return ("num", Fraction(int(value)))
        if kind == "named":
            return ("named", value[0], int(value[1:]))
        if kind == "atom":
            name = value[: value.index("[")]
            inner = value[value.index("[") + 1 : -1].strip()
            if inner:
                parts = [p.strip() for p in inner.split(",")]
                if "" in parts:
                    raise ParseError("the composition has an empty part", pos)
                if bad := [p for p in parts if not p.isdigit()]:
                    raise ParseError(f"composition part {bad[0]!r} is not one integer", pos)
                try:
                    comp = Composition(int(p) for p in parts)
                except ValueError as exc:
                    raise ParseError(str(exc), pos) from None
            else:
                comp = Composition()
            return ("basis", name, comp)
        if kind == "op" and value == "(":
            node = self.sum()
            if not self.take("op", ")"):
                raise ParseError("expected ')'", self.tokens[self.i][2])
            return node
        raise ParseError(f"expected an atom, got {value!r}" if value else "unexpected end of input", pos)


def parse(text: str):
    """Parse an expression into its AST; raises ParseError with a position."""
    return _Parser(text).parse()


def eval_expr(node) -> QSymElem:
    """Evaluate an AST in the M basis."""
    kind = node[0]
    if kind == "num":
        return scale(node[1], one())
    if kind == "basis":
        return to_basis(monomial(node[1], node[2]), "M")
    if kind == "named":
        from quasisym.kp import complete_h, power_sum

        if node[1] == "p":
            return power_sum(node[2])
        return complete_h(node[2])
    if kind == "neg":
        return -eval_expr(node[1])
    if kind == "add":
        return eval_expr(node[1]) + eval_expr(node[2])
    if kind == "sub":
        return eval_expr(node[1]) - eval_expr(node[2])
    if kind == "mul":
        return mul(eval_expr(node[1]), eval_expr(node[2]))
    if kind == "bullet":
        return bullet(node[1], eval_expr(node[2]), eval_expr(node[3]))
    if kind == "hat":
        return hat_bullet(node[1], eval_expr(node[2]), eval_expr(node[3]))
    raise ValueError(f"bad AST node {node!r}")


def evaluate(text: str) -> QSymElem:
    return eval_expr(parse(text))


# qss-verify --suite name -> its cases at N variables per alphabet, given the
# qss module, the only one that any of them needs
QSS_SUITES = {
    "kp": lambda qss, n: [(f"qss kp identity N={n}", qss.qss_kp_check(n))],
    "cancel": lambda qss, n: qss.cancel_cases(3, n),
    "closure": lambda qss, n: qss.closure_probe(3, n),
}


class _SuiteNames:
    """The choices of ``verify``: read, and the suites imported, only when
    an argument is checked or the help is printed."""

    def __iter__(self):
        from quasisym.suites import SUITES

        return iter(sorted(SUITES) + ["all"])

    def __contains__(self, name):
        return name in list(self)


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text at spaces only, so that no suite name is split at a hyphen."""

    def _split_lines(self, text, width):
        import textwrap

        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


def _emit_report(results, suite_name: str, as_json: bool, out) -> bool:
    """Print one suite's (label, verdict) results; returns overall pass.  A
    suite that ran no case fails: it checked nothing.  The text report follows
    a failed identity case with its residual lhs - rhs."""
    ok_count = sum(1 for _, ok in results if ok)
    cases = results or [("no case at these bounds", False)]
    if as_json:
        import json

        for case, ok in cases:
            record = {"suite": suite_name, "case": case, "status": "pass" if ok else "fail"}
            out.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        for case, ok in cases:
            if not ok:
                out.write(f"FAIL {suite_name}: {case}\n")
                from quasisym.suites import Residual

                if isinstance(ok, Residual):
                    out.write(f"  lhs - rhs = {ok}\n")
        out.write(f"{suite_name}: {ok_count}/{len(results)} passed\n")
    return bool(results) and ok_count == len(results)


class _CommandParser(argparse.ArgumentParser):
    """The parser of one command.  Every option of a command is long but -h,
    so any other word that starts with one '-' is an argument: '-M[2]' is an
    expression, and '-h2' is the expression -h2, not -h with the argument 2."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quasisym",
        description="Exact computer algebra for quasi-symmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p_eval = sub.add_parser("eval", help="evaluate an expression in the M basis")
    p_eval.add_argument("expr")

    p_expand = sub.add_parser("expand", help="expand an expression in N variables")
    p_expand.add_argument("--vars", type=int, required=True, metavar="N")
    p_expand.add_argument("expr")

    p_convert = sub.add_parser("convert", help="re-express in a chosen basis")
    p_convert.add_argument("--to", choices=("M", "Mt", "F"), required=True)
    p_convert.add_argument("expr")

    p_coprod = sub.add_parser("coproduct", help="print the coproduct, one tensor term per line")
    p_coprod.add_argument("expr")

    p_anti = sub.add_parser("antipode", help="apply the antipode")
    p_anti.add_argument("expr")

    p_kp = sub.add_parser("kp", help="check one member of the KP identity family")
    p_kp.add_argument("--m", type=int, required=True)
    p_kp.add_argument("--n", type=int, required=True)
    p_kp.add_argument("--pde", action="store_true", help="print the corresponding hierarchy equation")
    p_kp.add_argument("--certify", type=int, metavar="N", help="also recompute both sides at N variables")

    p_qss = sub.add_parser("qss-verify", help="two-alphabet checks")
    p_qss.add_argument("--N", type=int, required=True, dest="nvars")
    p_qss.add_argument("--suite", choices=tuple(QSS_SUITES), default="kp")
    p_qss.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run an identity suite",
                              formatter_class=_HelpFormatter)
    p_verify.add_argument("suite", choices=_SuiteNames(), metavar="suite",
                          help="one of: %(choices)s")
    p_verify.add_argument("--max-weight", "--max", dest="max_weight", type=int, default=None)
    p_verify.add_argument("--max-k", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)

    try:
        return _dispatch(args, sys.stdout)
    except ParseError as exc:
        sys.stderr.write(f"parse error {exc}\n")
        return 2
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _dispatch(args, out) -> int:
    if args.command == "eval":
        out.write(format_elem(evaluate(args.expr)) + "\n")
        return 0
    if args.command == "expand":
        from quasisym.oracle import expand

        out.write(repr(expand(evaluate(args.expr), args.vars)) + "\n")
        return 0
    if args.command == "convert":
        out.write(format_elem(to_basis(evaluate(args.expr), args.to)) + "\n")
        return 0
    if args.command == "coproduct":
        from quasisym.hopf import coproduct

        terms = coproduct(evaluate(args.expr)).text_terms()
        out.write("".join(format_terms([term]) + "\n" for term in terms) or "0\n")
        return 0
    if args.command == "antipode":
        from quasisym.hopf import antipode

        out.write(format_elem(antipode(evaluate(args.expr))) + "\n")
        return 0

    if args.command == "kp":
        from quasisym.kp import certify_kp, kp_identity, kp_sigma, sigma_render

        # the report is written whole, so a refused bound leaves no PASS line
        lhs, rhs = kp_identity(args.m, args.n)
        ok = lhs == rhs
        lines = [f"kp m={args.m} n={args.n}: {'PASS' if ok else 'FAIL'}\n"]
        if ok and args.certify is not None:
            ok = certify_kp(args.m, args.n, args.certify)
            lines.append(f"oracle certification @N={args.certify}: {'PASS' if ok else 'FAIL'}\n")
        if args.pde:
            lines.append(sigma_render(kp_sigma(args.m, args.n), normalize=True) + " = 0\n")
        out.write("".join(lines))
        return 0 if ok else 1

    if args.command == "qss-verify":
        from quasisym import qss

        results = list(QSS_SUITES[args.suite](qss, args.nvars))
        return 0 if _emit_report(results, f"qss-{args.suite}", args.json, out) else 1

    # verify
    from quasisym import suites

    names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        results = suites.run_suite(name, max_weight=args.max_weight, max_k=args.max_k)
        all_ok = _emit_report(results, name, args.json, out) and all_ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
