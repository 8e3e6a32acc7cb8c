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

import re
import sys
from math import gcd
from types import SimpleNamespace

# Only what parsing and evaluating a sum of scaled basis elements needs is
# imported here: every other module, products, fractions and json included,
# is imported by the branch that runs it, because a module is compiled from
# source in each process whenever its bytecode cannot be cached.
from quasisym.composition import Composition
from quasisym.elements import QSymElem, format_elem, format_ratios, monomial, reduced, to_basis


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


# AST: ("num", numerator, denominator), two ints in lowest terms, den >= 1
#      ("basis", name, Composition) ("named", "p"|"h", int)
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
            num, _, den = value.partition("/")
            num, den = int(num), int(den or 1)
            if den == 0:
                raise ParseError("zero denominator", pos)
            g = gcd(num, den)
            return ("num", num // g, den // g)
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


# An atom whose M-basis expansion would have more than 2^ATOM_CEILING terms
# is refused before anything is built; no golden or test comes near it.
ATOM_CEILING = 24


def _refuse_large(atom: str, log2_terms: int):
    if log2_terms > ATOM_CEILING:
        raise ValueError(f"{atom} has 2^{log2_terms} terms in the M basis, "
                         f"more than the ceiling of 2^{ATOM_CEILING}")


def eval_expr(node) -> QSymElem:
    """Evaluate an AST in the M basis."""
    kind = node[0]
    if kind == "num":
        return QSymElem._raw("M", {(): node[1]} if node[1] else {}, node[2])
    if kind == "basis":
        name, comp = node[1], node[2]
        log2_terms = {"M": 0, "Mt": len(comp) - 1, "F": comp.weight - len(comp)}[name]
        _refuse_large(f"{name}{comp!r}", log2_terms)
        return to_basis(monomial(name, comp), "M")
    if kind == "named":
        from quasisym.kp import complete_h, power_sum

        if node[1] == "p":
            return power_sum(node[2])
        _refuse_large(f"h{node[2]}", node[2] - 1)  # one term per composition of n
        return complete_h(node[2])
    if kind == "neg":
        return -eval_expr(node[1])
    if kind == "add":
        return eval_expr(node[1]) + eval_expr(node[2])
    if kind == "sub":
        return eval_expr(node[1]) - eval_expr(node[2])
    if kind == "mul":
        a, b = eval_expr(node[1]), eval_expr(node[2])
        for c, x in ((a, b), (b, a)):
            if c.nums.keys() <= {()}:  # a constant, whose only word is the empty one
                nums = {k: v * c.nums.get((), 0) for k, v in x.nums.items()}
                return QSymElem._raw("M", *reduced(nums, c.den * x.den))
        from quasisym.products import mul

        return mul(a, b)
    if kind == "bullet":
        from quasisym.products import bullet

        return bullet(node[1], eval_expr(node[2]), eval_expr(node[3]))
    if kind == "hat":
        from quasisym.products import hat_bullet

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


def _suite_names():
    """The choices of ``verify``: read, and the suites imported, only when a
    name is checked or the help is printed."""
    from quasisym.suites import SUITES

    return (*sorted(SUITES), "all")


# The command line: command -> (help text, positionals, options).  A
# positional maps its name to its kind, and a long option maps itself to
# (dest, kind, default), the default ... when the option is required.  A kind
# is int, a tuple of choices, a function that returns them, or None: any word
# for a positional, a flag (default False) for an option.
_EXPR, _JSON, _MAX_WEIGHT = {"expr": None}, ("json", None, False), ("max_weight", int, None)
COMMANDS = {
    "eval": ("evaluate an expression in the M basis", _EXPR, {}),
    "expand": ("expand an expression in N variables", _EXPR, {"--vars": ("vars", int, ...)}),
    "convert": ("re-express in a chosen basis", _EXPR, {"--to": ("to", ("M", "Mt", "F"), ...)}),
    "coproduct": ("print the coproduct, one tensor term per line", _EXPR, {}),
    "antipode": ("apply the antipode", _EXPR, {}),
    "kp": ("check one member of the KP identity family; --pde also prints the corresponding "
           "hierarchy equation, and --certify N recomputes both sides at N variables", {},
           {"--m": ("m", int, ...), "--n": ("n", int, ...), "--pde": ("pde", None, False),
            "--certify": ("certify", int, None)}),
    "qss-verify": ("two-alphabet checks", {}, {"--N": ("nvars", int, ...),
                   "--suite": ("suite", tuple(QSS_SUITES), "kp"), "--json": _JSON}),
    "verify": ("run an identity suite", {"suite": _suite_names},
               {"--max-weight": _MAX_WEIGHT, "--max": _MAX_WEIGHT,
                "--max-k": ("max_k", int, None), "--json": _JSON}),
}
_HELP = ("help", None, False)  # the spec of -h and --help


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


def _usage(command) -> str:
    if command is None:
        return "usage: quasisym [-h] {" + ",".join(COMMANDS) + "} ..."
    _, positionals, options = COMMANDS[command]
    words = ["usage: quasisym", command, "[-h]"]
    for flag, (_, kind, default) in options.items():
        if kind is not None:
            flag += " N" if kind is int else " {" + ",".join(kind) + "}"
        words.append(flag if default is ... else f"[{flag}]")
    return " ".join(words + list(positionals))


def _fail(command, message):
    """Print the usage and the error to stderr, and exit 2."""
    prog = "quasisym" if command is None else f"quasisym {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help(command):
    """Print the help of a command, or of the program when None, and exit 0."""
    import textwrap

    if command is None:
        lines = ["Exact computer algebra for quasi-symmetric functions", "",
                 *(f"{name}: {text}" for name, (text, _, _) in COMMANDS.items())]
    else:
        text, positionals, _ = COMMANDS[command]
        lines = [text] + [f"{name}: one of {', '.join(kind())}"
                          for name, kind in positionals.items() if kind]
    # wrapped at spaces only, so that no suite name is split at a hyphen
    lines = [textwrap.fill(line, 78, subsequent_indent="  ", break_on_hyphens=False)
             for line in lines]
    sys.stdout.write("\n".join([_usage(command), "", *lines]) + "\n")
    raise SystemExit(0)


def _option(command, word, options):
    """None if word is an argument, else (the option, its spec or None if
    there is no such option, the value after '=' or None).  Only -h and words
    that start with '--' are options, so '-M[2]' and '-h2' are arguments.  An
    option may be cut to a prefix of one option; a '--' word that is no
    option's prefix but holds a space is an argument."""
    if word == "-h":
        return word, _HELP, None
    if word[:2] != "--" or word == "--":
        return None
    name, eq, value = word.partition("=")
    specs = {**options, "--help": _HELP}
    flags = [name] if name in specs else [flag for flag in specs if flag.startswith(name)]
    if len(flags) > 1:
        _fail(command, f"ambiguous option: {name} could match {', '.join(flags)}")
    if flags:
        return flags[0], specs[flags[0]], value if eq else None
    return None if " " in word else (word, None, None)


def _value(command, name, kind, word):
    """word read as kind: an int, or one of the choices; None takes any word."""
    if kind is int:
        try:
            return int(word)
        except ValueError:
            _fail(command, f"argument {name}: invalid int value: {word!r}")
    choices = kind() if callable(kind) else kind
    if choices is not None and word not in choices:
        _fail(command, f"argument {name}: invalid choice: {word!r} "
                       f"(choose from {', '.join(map(repr, choices))})")
    return word


def _parse_argv(argv) -> SimpleNamespace:
    """The fields `_dispatch` reads: the command, and the dests and positional
    names of the command in `COMMANDS`.  The words are read in order, so an
    error before -h exits 2 and -h before an error prints the help; missing
    and unrecognized arguments are reported at the end."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        if command and (_option(None, command, {}) or ())[1:] == (_HELP, None):
            _help(None)
        _fail(None, "the following arguments are required: command" if command is None else
              f"argument command: invalid choice: {command!r} "
              f"(choose from {', '.join(map(repr, COMMANDS))})")
    _, positionals, options = COMMANDS[command]
    words = list(argv[1:])
    # every word is classed before any is read, so an ambiguous option fails
    # even after -h; the first '--' stays '--', and every word after it is None
    end = words.index("--") if "--" in words else len(words)
    opts = ([_option(command, word, options) for word in words[:end]] + words[end:end + 1]
            + [None] * (len(words) - end - 1))
    args = {"command": command, **{dest: default for dest, _, default in options.values()}}
    todo, extras, i, filled = list(positionals), [], 0, False
    while i < len(words):
        word, opt, i = words[i], opts[i], i + 1
        if opt is None and todo:
            name = todo.pop(0)
            args[name], filled = _value(command, name, positionals[name], word), True
            continue
        if opt == "--":  # a '--' next to no word that fills a positional is left over
            if not (filled or todo and i < len(words)):
                extras.append(word)
        elif opt is None or opt[1] is None:
            extras.append(word)  # an argument too many, or no such option
        else:
            flag, (dest, kind, _), value = opt
            if kind is None:
                if value is not None:
                    _fail(command, f"argument {flag}: ignored explicit argument {value!r}")
                if opt[1] is _HELP:
                    _help(command)
                args[dest] = True
            else:
                if value is None:
                    if i == len(words) or opts[i] is not None:
                        _fail(command, f"argument {flag}: expected one argument")
                    value, i = words[i], i + 1
                args[dest] = _value(command, flag, kind, value)
        filled = False
    missing = [flag for flag, (dest, _, _) in options.items() if args[dest] is ...] + todo
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else argv)

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
        out.write("".join(format_ratios([term]) + "\n" for term in terms) or "0\n")
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
