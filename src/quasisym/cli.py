"""Command-line front end.

Subcommands: eval, expand, convert, coproduct, antipode, kp, qss-verify,
verify.  Exit codes: 0 all good, 1 an identity check failed, 2 usage or
parse errors.  All output is deterministic so reports can be diffed.

Expression grammar (whitespace insensitive):

    sum     := ['-'] product (('+' | '-') product)*
    product := atom (op atom)*      op one of '*', '.k.', '^k^'
    atom    := 'M[..]' | 'Mt[..]' | 'F[..]' | 'p<int>' | 'h<int>'
             | integer | 'a/b' | '(' sum ')'

'*' chains associate on the left.  A product chain containing '.k.' or
'^k^' must consist of that single operator: those products are not
associative, so longer chains require explicit parentheses.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from quasisym.composition import Composition
from quasisym.elements import QSymElem, format_elem, format_terms, monomial, one, scale, to_basis
from quasisym.hopf import antipode, coproduct
from quasisym.kp import complete_h, kp_identity, kp_sigma_expression, power_sum, sigma_render
from quasisym.oracle import expand
from quasisym.products import bullet, hat_bullet, mul
from quasisym.qss import qss_kp_check
from quasisym.suites import SUITES, Residual, certify_kp, run_suite
from quasisym.suites import suite_qss_cancel, suite_qss_closure


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
            raise ParseError(
                "product chains mixing '*' with '.k.'/'^k^', or chaining "
                "'.k.'/'^k^', need explicit parentheses: these products are "
                "not associative",
                ops[1][2],
            )
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
                return ("num", Fraction(int(num), int(den)))
            return ("num", Fraction(int(value)))
        if kind == "named":
            return ("named", value[0], int(value[1:]))
        if kind == "atom":
            name = value[: value.index("[")]
            inner = value[value.index("[") + 1 : -1].strip()
            if inner:
                try:
                    parts = tuple(int(p) for p in inner.split(","))
                    comp = Composition(parts)
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


# qss-verify --suite name -> the cases at N variables per alphabet
QSS_SUITES = {
    "kp": lambda n: [(f"qss kp identity N={n}", qss_kp_check(n))],
    "cancel": lambda n: suite_qss_cancel(max_weight=3, nvars=n),
    "closure": lambda n: suite_qss_closure(max_weight=3, nvars=n),
}


def _emit_report(results, suite_name: str, as_json: bool, out) -> bool:
    """Print one suite's (label, verdict) results; returns overall pass.  A
    suite that ran no case fails: it checked nothing.  The text report follows
    a failed identity case with its residual lhs - rhs."""
    ok_count = sum(1 for _, ok in results if ok)
    cases = results or [("no case at these bounds", False)]
    if as_json:
        for case, ok in cases:
            record = {"suite": suite_name, "case": case, "status": "pass" if ok else "fail"}
            out.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        for case, ok in cases:
            if not ok:
                out.write(f"FAIL {suite_name}: {case}\n")
                if isinstance(ok, Residual):
                    out.write(f"  lhs - rhs = {ok}\n")
        out.write(f"{suite_name}: {ok_count}/{len(results)} passed\n")
    return bool(results) and ok_count == len(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quasisym",
        description="Exact computer algebra for quasi-symmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--max", type=int, default=None, help="alias for --max-weight")
    p_verify.add_argument("--max-weight", type=int, default=None)
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
        out.write(repr(expand(evaluate(args.expr), args.vars)) + "\n")
        return 0
    if args.command == "convert":
        out.write(format_elem(to_basis(evaluate(args.expr), args.to)) + "\n")
        return 0
    if args.command == "coproduct":
        for term in coproduct(evaluate(args.expr)).text_terms():
            out.write(format_terms([term]) + "\n")
        return 0
    if args.command == "antipode":
        out.write(format_elem(antipode(evaluate(args.expr))) + "\n")
        return 0

    if args.command == "kp":
        # the report is written whole, so a refused bound leaves no PASS line
        lhs, rhs = kp_identity(args.m, args.n)
        ok = lhs == rhs
        lines = [f"kp m={args.m} n={args.n}: {'PASS' if ok else 'FAIL'}\n"]
        if ok and args.certify is not None:
            ok = certify_kp(args.m, args.n, args.certify)
            lines.append(f"oracle certification @N={args.certify}: {'PASS' if ok else 'FAIL'}\n")
        if args.pde:
            sigma = kp_sigma_expression(args.m, args.n)
            lines.append(sigma_render(sigma, normalize=True) + " = 0\n")
        out.write("".join(lines))
        return 0 if ok else 1

    if args.command == "qss-verify":
        results = list(QSS_SUITES[args.suite](args.nvars))
        return 0 if _emit_report(results, f"qss-{args.suite}", args.json, out) else 1

    # verify
    max_weight = args.max_weight if args.max_weight is not None else args.max
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        results = run_suite(name, max_weight=max_weight, max_k=args.max_k)
        all_ok = _emit_report(results, name, args.json, out) and all_ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
