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
from collections import Counter
from functools import reduce
from math import comb, gcd
from types import SimpleNamespace

# Only what parsing and evaluating a sum of scaled basis elements needs is
# imported here: every other module, products, fractions and json included,
# is imported by the branch that runs it, because a module is compiled from
# source in each process whenever its bytecode cannot be cached.
from quasisym.composition import Composition, positive_index
from quasisym.elements import QSymElem, format_elem, format_ratios, monomial, reduced, sum_forms, to_basis


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
KP_CEILING = 18  # log2 of the 2^(m+n) words of kp's h_m h_{n+1}; 19 took 12.8 s and 1.2 GB
CERTIFY_CEILING = 20  # log2 of the monomials kp --certify counts; 2.5 s and 14 MB at most
QSS_KP_CEILING = 24  # N of qss-verify --suite kp: 2.4 s and 186 MB at 24, 39 s at 40


def _log2_reach(basis: str, word) -> int:
    """log2 of the number of terms of basis[word] in M, which M[word] has in basis too."""
    return {"M": 0, "Mt": len(word) - 1, "F": sum(word) - len(word)}[basis]


def _refuse(past: bool, what: str, ceiling: int = ATOM_CEILING, unit: str = "") -> None:
    """Refuse an input before anything is built, when past: what states its size."""
    if past:
        raise ValueError(f"{what}, more than the ceiling of 2^{ceiling}{unit}")


def _refuse_large(atom: str, log2_terms: int, basis: str = "M", ceiling: int = ATOM_CEILING):
    # in log2: F[2147483648] has 2^(2^31 - 1) terms, a number not to be built
    _refuse(log2_terms > ceiling, f"{atom} has 2^{log2_terms} terms in the {basis} basis", ceiling)


def _refuse_product(op: str, a: QSymElem, b: QSymElem, k: int, pair_bound: int) -> None:
    """Refuse a product of weight deg a + deg b + k whose answer can pass the ceiling.

    A weight w holds 2^(w-1) words, so the answer has at most the sum of 2^(w-1)
    over its weights, or pair_bound terms if fewer.  Each power stops at
    2^(ATOM_CEILING+1), which decides the comparison without a huge number."""
    wa, wb = set(map(sum, a.nums)), set(map(sum, b.nums))
    weights = {u + v + k for u in wa for v in wb}
    bound = min(pair_bound, sum(1 << min(max(w - 1, 0), ATOM_CEILING + 1) for w in weights))
    _refuse(bound > 1 << ATOM_CEILING, f"the product {op} can have {bound} terms in the M basis")


def _quasi_shuffle_words(a: QSymElem, b: QSymElem) -> int:
    """The words of all quasi-shuffles of a word of a with a word of b: D(l, m) =
    sum_k C(l,k) C(m,k) 2^k for lengths l and m, k stopped at ATOM_CEILING."""
    la, lb = Counter(map(len, a.nums)), Counter(map(len, b.nums))
    return sum(x * y * sum(comb(l, k) * comb(m, k) << k for k in range(min(l, m, ATOM_CEILING) + 1))
               for l, x in la.items() for m, y in lb.items())


def _times(a: QSymElem, b: QSymElem) -> QSymElem:
    """a * b; a constant factor scales the other one, without the kernel."""
    for c, x in ((a, b), (b, a)):
        if c.nums.keys() <= {()}:  # a constant, whose only word is the empty one
            nums = {k: v * c.nums.get((), 0) for k, v in x.nums.items()}
            return QSymElem._raw("M", *reduced(nums, c.den * x.den))
    _refuse_product("*", a, b, 0, _quasi_shuffle_words(a, b))
    from quasisym.products import mul

    return mul(a, b)


def eval_expr(node) -> QSymElem:
    """Evaluate an AST in the M basis."""
    kind = node[0]
    if kind == "num":
        return QSymElem._raw("M", {(): node[1]} if node[1] else {}, node[2])
    if kind == "basis":
        name, comp = node[1], node[2]
        _refuse_large(f"{name}{comp!r}", _log2_reach(name, comp))
        return to_basis(monomial(name, comp), "M")
    if kind == "named":
        from quasisym.kp import complete_h, power_sum

        if node[1] == "p":
            return power_sum(node[2])
        _refuse_large(f"h{node[2]}", node[2] - 1)  # one term per composition of n
        return complete_h(node[2])
    if kind == "neg":
        return -eval_expr(node[1])
    if kind in ("add", "sub", "mul"):  # the parser nests a chain to the left: walk it in a loop
        chain, ops = [], ("mul",) if kind == "mul" else ("add", "sub")
        while node[0] in ops:
            chain.append(node)
            node = node[1]
        # left to right, so that an error names the first bad term
        terms = [eval_expr(node), *(-eval_expr(b) if op == "sub" else eval_expr(b)
                                    for op, _, b in reversed(chain))]
        if kind == "mul":
            return reduce(_times, terms)
        return QSymElem._raw("M", *sum_forms(*(term.form for term in terms)))
    if kind in ("bullet", "hat"):  # each term pair gives at most two words
        from quasisym import products

        k, a, b = node[1], eval_expr(node[2]), eval_expr(node[3])
        op = f".{k}." if kind == "bullet" else f"^{k}^"
        _refuse_product(op, a, b, positive_index(k, "product index"), 2 * len(a.nums) * len(b.nums))
        return (products.bullet if kind == "bullet" else products.hat_bullet)(k, a, b)
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
    name is checked or argparse reads argv."""
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
                if type(ok) is not bool:  # a Residual
                    out.write(f"  lhs - rhs = {ok}\n")
        out.write(f"{suite_name}: {ok_count}/{len(results)} passed\n")
    return bool(results) and ok_count == len(results)


def _plain(argv):
    """The fields `_dispatch` reads, when argv is in the plain spelling: a
    command, then exact long options, each value the next word, flags, and
    arguments that do not start with '--' ('-M[2]' and '-h2' are arguments,
    but '-h' is not).  None for any other spelling, and for any error."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, positionals, options = COMMANDS[argv[0]]
    args = {"command": argv[0], **{dest: default for dest, _, default in options.values()}}
    todo, words = list(positionals), iter(argv[1:])
    for word in words:
        if word[:2] == "--" or word == "-h":
            if word not in options:
                return None
            dest, kind, _ = options[word]
            if kind is None:
                args[dest] = True
                continue
            word = next(words, "-")  # no value is read as a value that starts with '-'
            if word[:1] == "-":
                return None
        elif todo:
            dest = todo.pop(0)
            kind = positionals[dest]
        else:
            return None
        if kind is int:
            try:
                word = int(word)
            except ValueError:
                return None
        elif kind is not None and word not in (kind() if callable(kind) else kind):
            return None
        args[dest] = word
    return None if todo or ... in args.values() else SimpleNamespace(**args)


def _parse_argv(argv):
    """The fields `_dispatch` reads.  argparse, built from `COMMANDS`, reads
    every spelling but the plain one, and prints the help and usage errors."""
    if (args := _plain(argv)) is not None:
        return args
    import argparse

    class Parser(argparse.ArgumentParser):
        def _parse_optional(self, arg_string):
            # every option of a command is long but -h: '-M[2]' is an argument
            if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
                return None
            return super()._parse_optional(arg_string)

        def _get_formatter(self):
            # so wide that the usage stays on one line, whatever $COLUMNS says
            return argparse.HelpFormatter(self.prog, width=1000)

        def format_help(self):
            import textwrap

            # wrapped at spaces only, so that no suite name is split at a hyphen
            lines = [textwrap.fill(line, 78, subsequent_indent="  ", break_on_hyphens=False)
                     for line in self.description.split("\n")]
            return "\n".join([self.format_usage(), *lines]) + "\n"

    parser = Parser(prog="quasisym", description="\n".join(
        ["Exact computer algebra for quasi-symmetric functions", "",
         *(f"{name}: {text}" for name, (text, _, _) in COMMANDS.items())]))
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (text, positionals, options) in COMMANDS.items():
        choices = {name: kind() for name, kind in positionals.items() if kind}
        sub = commands.add_parser(command, description="\n".join(
            [text, *(f"{name}: one of {', '.join(names)}" for name, names in choices.items())]))
        for flag, (dest, kind, default) in options.items():
            spec = {"action": "store_true"} if kind is None else (
                {"type": int, "metavar": "N"} if kind is int else {"choices": kind})
            sub.add_argument(flag, dest=dest, required=default is ...,
                             default=None if default is ... else default, **spec)
        for name in positionals:
            sub.add_argument(name, choices=choices.get(name), metavar=name)
    args, extras = parser.parse_known_args(argv)
    if extras:  # reported with the command's usage
        commands.choices[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else argv)

    try:
        return _dispatch(args, sys.stdout)
    except ParseError as exc:
        sys.stderr.write(f"parse error {exc}\n")
        return 2
    except (ValueError, TypeError, RecursionError) as exc:
        # a RecursionError is an expression nested too deep to walk
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 2
    except MemoryError:  # reported below, where the failed call's frames are freed
        pass
    if "quasisym._core" in sys.modules:  # and so are the memos, which may hold the rest
        sys.modules["quasisym._core"].clear_caches()
    sys.stderr.write("error: MemoryError\n")
    return 2


def _dispatch(args, out) -> int:
    if args.command == "eval":
        out.write(format_elem(evaluate(args.expr)) + "\n")
        return 0
    if args.command == "expand":
        from quasisym.oracle import expand

        node = parse(args.expr)  # a parse error first, then a bad N, before anything is built
        positive_index(args.vars, "variable count")
        a = eval_expr(node)  # M[word] has C(N, len word) monomials; no two words share one
        count = sum(comb(args.vars, len(word)) for word in a.nums)
        _refuse(count * args.vars > 1 << ATOM_CEILING,  # each monomial packs N exponent fields
                f"the expansion in {args.vars} variables has {count} monomials of {args.vars} "
                "exponents", unit=" exponents")
        out.write(repr(expand(a, args.vars)) + "\n")
        return 0
    if args.command == "convert":
        a = evaluate(args.expr)  # in M: each M[word] has 2^_log2_reach(to, word) terms in to
        word = max(a.nums, key=lambda w: _log2_reach(args.to, w), default=())
        _refuse_large(f"M{Composition.__repr__(word)}", _log2_reach(args.to, word), args.to)
        out.write(format_elem(to_basis(a, args.to)) + "\n")
        return 0
    if args.command == "coproduct":
        from quasisym.hopf import coproduct

        terms = coproduct(evaluate(args.expr)).text_terms()
        out.write("".join(format_ratios([term]) + "\n" for term in terms) or "0\n")
        return 0
    if args.command == "antipode":
        from quasisym.hopf import antipode

        a = evaluate(args.expr)  # S(M[word]) is +-Mt[reversed word], read in M
        word = max(a.nums, key=len, default=())
        _refuse_large(f"S(M{Composition.__repr__(word)})", _log2_reach("Mt", word))
        out.write(format_elem(antipode(a)) + "\n")
        return 0

    if args.command == "kp":
        from quasisym.kp import certify_kp, kp_identity, kp_sigma, sigma_render

        # every bound before anything is built, in the order kp_identity and certify_kp check them
        m, n = positive_index(args.m, "identity index m"), positive_index(args.n, "identity index n")
        _refuse_large(f"h{m} h{n + 1}", m + n, ceiling=KP_CEILING)
        if args.certify is not None:  # C(N+d-1, d) monomials of the degree d = m + n + 1
            nvars = positive_index(args.certify, "variable count", least=m + n + 1)
            count = comb(nvars + m + n, m + n + 1)
            _refuse(count > 1 << CERTIFY_CEILING, f"the certification in {nvars} variables "
                    f"counts {count} monomials of degree {m + n + 1}", CERTIFY_CEILING)
        lhs, rhs = kp_identity(m, n)
        ok = lhs == rhs
        lines = [f"kp m={m} n={n}: {'PASS' if ok else 'FAIL'}\n"]
        if ok and args.certify is not None:
            ok = certify_kp(m, n, args.certify)
            lines.append(f"oracle certification @N={args.certify}: {'PASS' if ok else 'FAIL'}\n")
        if args.pde:
            lines.append(sigma_render(kp_sigma(m, n), normalize=True) + " = 0\n")
        out.write("".join(lines))  # whole, so that an error leaves no PASS line
        return 0 if ok else 1

    if args.command == "qss-verify":
        if args.suite == "kp" and args.nvars > QSS_KP_CEILING:
            raise ValueError(f"the qss kp identity at N={args.nvars} is past the ceiling "
                             f"of N={QSS_KP_CEILING}")
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
