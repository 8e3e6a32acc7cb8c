"""Seeded workloads of the quasisym benchmark: inputs, timed ops, output checks.

``build(workload, seed)`` makes every input before anything is timed and
returns a list of ``Op``.  Calling an op looks its program function up by
module attribute at call time, so the traced run sees the same calls.  An
op's ``check`` runs outside the timed region.

Each workload fixes its op mix and input sizes; the seed draws the
compositions, the coefficients and the order.  Seeds are therefore
comparable with each other, and the same seed always gives the same ops.

Importing this module puts the checkout's ``src`` first on ``sys.path``
and refuses to run without it, so the benchmark never measures an
installed copy of the package.
"""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "quasisym" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no quasisym source under {SRC}")
sys.path.insert(0, str(SRC))

import quasisym  # noqa: E402
import quasisym.suites  # noqa: E402  (not imported by the package itself)
from quasisym.composition import Composition  # noqa: E402
from quasisym.elements import QSymElem, format_elem, monomial  # noqa: E402
from quasisym.oracle import Polynomial, expand, expand_bullet, poly_mul  # noqa: E402

if Path(quasisym.__file__).resolve().parent != SRC / "quasisym":
    raise SystemExit(f"perfbench: imported quasisym from {quasisym.__file__}, not {SRC}")

BASES = ("M", "Mt", "F")
TERM_COUNTS = (2, 6, 12, 24)
# oracle variables for the check of every algebra op; a seeded share is
# checked again at N = degree when the degree is at most FULL_CHECK_DEGREE
CHECK_N = 4
FULL_CHECK_DEGREE = 7
FULL_CHECK_SHARE = 0.1
CLI_TIMEOUT_S = 120


def call(path: str, *args, **kwargs):
    """Call ``quasisym.<module>.<name>`` as currently bound (traced or not)."""
    module, name = path.split(".")
    return getattr(sys.modules["quasisym." + module], name)(*args, **kwargs)


class Op:
    """One timed operation: ``fn(*args)``, checked by ``check(op, output)``.

    ``expect`` is what the check compares against: the oracle's variable
    counts for an algebra op, a stdout matcher for a CLI command.
    """

    __slots__ = ("kind", "fn", "args", "check", "expect")

    def __init__(self, kind, fn, args, check, expect=()):
        self.kind = kind
        self.fn = fn
        self.args = args
        self.check = check
        self.expect = expect

    def __call__(self):
        return self.fn(*self.args)


_caches = []


def clear_caches():
    """Empty every memo cache in the package, so the next call starts cold."""
    if not _caches:
        seen = set()
        for name, module in list(sys.modules.items()):
            if name == "quasisym" or name.startswith("quasisym."):
                for value in vars(module).values():
                    if hasattr(value, "cache_clear") and id(value) not in seen:
                        seen.add(id(value))
                        _caches.append(value)
    for fn in _caches:
        fn.cache_clear()


# -- random inputs ---------------------------------------------------------

def _composition(weight: int, mask: int) -> tuple:
    """The composition of weight whose part boundaries are the set bits of mask."""
    parts = [1]
    for gap in range(weight - 1):
        if mask >> gap & 1:
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


def _length_quota(weight: int, nterms: int) -> dict:
    """How many of nterms compositions of weight to take of each length.

    Proportional to how many compositions have that length (largest
    remainder), so the length profile, which sets the cost of products and
    base changes, is the same for every seed.
    """
    total = 1 << (weight - 1)
    share = {length: nterms * math.comb(weight - 1, length - 1) / total
             for length in range(1, weight + 1)}
    quota = {length: int(x) for length, x in share.items()}
    by_remainder = sorted(share, key=lambda length: (quota[length] - share[length], length))
    for length in by_remainder[:nterms - sum(quota.values())]:
        quota[length] += 1
    return quota


def random_elem(rng, basis: str, weight: int, nterms: int) -> QSymElem:
    """A homogeneous rational combination of distinct basis elements.

    The seed picks which compositions of each length appear and the
    coefficients; about a third of the coefficients have a denominator.
    """
    nterms = min(nterms, 1 << (weight - 1))
    by_length = {}
    for mask in range(1 << (weight - 1)):
        by_length.setdefault(bin(mask).count("1") + 1, []).append(mask)
    masks = []
    for length, count in _length_quota(weight, nterms).items():
        masks += rng.sample(by_length[length], count)
    terms = {}
    for mask in masks:
        num = rng.choice((-9, -7, -5, -3, -2, -1, 1, 2, 3, 4, 5, 7, 8, 9))
        den = rng.choice((1, 1, 1, 1, 2, 3, 5))
        terms[_composition(weight, mask)] = Fraction(num, den)
    return QSymElem(basis, terms)


def render(a: QSymElem) -> str:
    """CLI expression text of an element, e.g. ``3/2*F[2,1] - 1*F[3]``."""
    out = []
    for comp, coeff in a.terms.items():
        mag = abs(coeff)
        num = f"{mag.numerator}" if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        atom = f"{num}*{a.basis}[{','.join(map(str, comp))}]"
        sign = "-" if coeff < 0 else ("+" if out else "")
        out.append(f"{sign} {atom}" if out else sign + atom)
    return " ".join(out)


# -- oracle checks ---------------------------------------------------------

def _m_coefficients(a: QSymElem) -> dict:
    """M-basis coefficients of a, read off its expansion at N = degree.

    The coefficient of M_C is that of x_1^c_1 ... x_l^c_l, the only monomial
    of M_C whose support is a prefix of the variables.
    """
    out = {}
    for mono, coeff in expand(a, max(a.degree, 1)).terms.items():
        length = next((i for i, e in enumerate(mono) if e == 0), len(mono))
        if not any(mono[length:]):
            out[mono[:length]] = coeff
    return out


def _check_product(op, out) -> bool:
    kind, k, a, b = op.args
    for n in op.expect:
        if kind == "mul":
            want = poly_mul(expand(a, n), expand(b, n))
        else:
            want = expand_bullet(k, a, b, n, hat=kind == "hat_bullet")
        if expand(out, n) != want:
            return False
    return True


def _check_to_basis(op, out) -> bool:
    _, a, target = op.args
    return out.basis == target and all(expand(out, n) == expand(a, n) for n in op.expect)


def _check_coproduct(op, out) -> bool:
    """Delta(a)(x; y) is a evaluated on the alphabet x_1 < .. < x_N < y_1 < .. < y_N."""
    a = op.args[1]
    for n in op.expect:
        acc = {}
        for (left, right), coeff in out.terms.items():
            for ml, cl in expand(monomial("M", left), n).terms.items():
                for mr, cr in expand(monomial("M", right), n).terms.items():
                    acc[ml + mr] = acc.get(ml + mr, 0) + coeff * cl * cr
        if Polynomial(2 * n, acc) != expand(a, 2 * n):
            return False
    return True


def _check_antipode(op, out) -> bool:
    """S(M_C) = (-1)^len(C) Mt_rev(C): a weak chain sum the oracle expands."""
    a = op.args[1]
    image = QSymElem("Mt", {c[::-1]: (-1) ** len(c) * v for c, v in _m_coefficients(a).items()})
    return all(expand(out, n) == expand(image, n) for n in op.expect)


def _check_true(op, out) -> bool:
    return out is True


def _ns(rng, degree: int, full_ok: bool) -> tuple:
    """Oracle variable counts for an op's check: CHECK_N, and for a seeded share also N = degree."""
    if full_ok and degree != CHECK_N and rng.random() < FULL_CHECK_SHARE:
        return (CHECK_N, degree)
    return (CHECK_N,)


# -- algebra -----------------------------------------------------------------

ALGEBRA_MIX = (
    ("mul", 75), ("bullet", 50), ("hat_bullet", 50),
    ("to_basis", 45), ("coproduct", 35), ("antipode", 45),
)
# product degree stays at most 10 for mul: h_5 * h_5 already takes ~0.1 s
MUL_WEIGHTS = tuple((a, b) for a in range(3, 8) for b in range(3, 8) if a + b <= 10)
BULLET_WEIGHTS = tuple((a, b) for a in range(3, 8) for b in range(3, 8))


def build_algebra(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for kind, count in ALGEBRA_MIX:
        for i in range(count):
            basis = BASES[i % 3]
            if kind in ("mul", "bullet", "hat_bullet"):
                grid = MUL_WEIGHTS if kind == "mul" else BULLET_WEIGHTS
                wa, wb = grid[i % len(grid)]
                a = random_elem(rng, basis, wa, TERM_COUNTS[i % 4])
                b = random_elem(rng, BASES[(i // 3) % 3], wb, TERM_COUNTS[(i // 4) % 4])
                k = 1 + i % 3 if kind != "mul" else 0
                degree = wa + wb + k
                ops.append(Op(kind, _algebra_product, (kind, k, a, b), _check_product,
                              _ns(rng, degree, degree <= FULL_CHECK_DEGREE)))
                continue
            weight = 3 + i % 5
            a = random_elem(rng, basis, weight, TERM_COUNTS[(i // 5) % 4])
            if kind == "to_basis":
                target = [t for t in BASES if t != basis][(i // 3) % 2]
                ops.append(Op(kind, call, ("elements.to_basis", a, target), _check_to_basis,
                              _ns(rng, weight, True)))
            elif kind == "coproduct":
                # the two-alphabet check needs 2N variables
                ops.append(Op(kind, call, ("hopf.coproduct", a), _check_coproduct,
                              _ns(rng, weight, weight <= 4)))
            else:
                ops.append(Op(kind, call, ("hopf.antipode", a), _check_antipode,
                              _ns(rng, weight, True)))
    rng.shuffle(ops)
    return ops


def _algebra_product(kind, k, a, b):
    if kind == "mul":
        return call("products.mul", a, b)
    return call("products." + kind, k, a, b)


# -- certify -----------------------------------------------------------------

# on a 2-core VM with CPython 3.11, kp_identity(6, 6) alone takes ~5 s and
# certify_kp with m + n = 6 ~0.6 s each; smaller bounds keep a pass near
# 3 s, so a run has ~10 passes
KP_MAX = 5            # kp_identity(m, n) for 1 <= m, n <= KP_MAX
CERTIFY_MAX_SUM = 5   # certify_kp(m, n, m + n + 2) for m + n <= CERTIFY_MAX_SUM
QSS_MAX_N = 4
ORACLE_PAIRS = 30     # per product kind, checked at N = degree <= 8
ORACLE_MUL_WEIGHTS = tuple((a, b) for a in range(1, 6) for b in range(1, 6) if a + b <= 7)
ORACLE_BULLET_WEIGHTS = tuple((a, b) for a in range(1, 6) for b in range(1, 6) if a + b <= 6)


def _job_kp(m: int, n: int) -> bool:
    lhs, rhs = call("kp.kp_identity", m, n)
    return lhs == rhs


def _job_certify_kp(m: int, n: int) -> bool:
    return call("suites.certify_kp", m, n, m + n + 2)


def _job_oracle(kind: str, k: int, a, b, n: int) -> bool:
    """A product against the summation oracle at N = its degree."""
    if kind == "mul":
        got = call("products.mul", a, b)
        want = call("oracle.poly_mul", call("oracle.expand", a, n), call("oracle.expand", b, n))
    else:
        got = call("products." + kind, k, a, b)
        want = call("oracle.expand_bullet", k, a, b, n, hat=kind == "hat_bullet")
    return call("oracle.expand", got, n) == want


def _job_qss(n: int) -> bool:
    return call("qss.qss_kp_check", n)


def build_certify(seed: int) -> list:
    """The fixed KP and QSS grids in a fixed order, then the seeded product checks.

    A grid job's cost depends on what earlier jobs left in the caches, so
    the grids keep one order for every seed; the seed orders the rest.
    """
    rng = random.Random(seed)
    grids = [Op("kp_identity", _job_kp, (m, n), _check_true)
             for m in range(1, KP_MAX + 1) for n in range(1, KP_MAX + 1)]
    grids += [Op("certify_kp", _job_certify_kp, (m, n), _check_true)
              for m in range(1, CERTIFY_MAX_SUM) for n in range(1, CERTIFY_MAX_SUM + 1 - m)]
    grids += [Op("qss_kp_check", _job_qss, (n,), _check_true) for n in range(1, QSS_MAX_N + 1)]
    ops = []
    for kind in ("mul", "bullet", "hat_bullet"):
        grid = ORACLE_MUL_WEIGHTS if kind == "mul" else ORACLE_BULLET_WEIGHTS
        for i in range(ORACLE_PAIRS):
            wa, wb = grid[i % len(grid)]
            k = 0 if kind == "mul" else 1 + i % 2
            a = random_elem(rng, BASES[i % 3], wa, TERM_COUNTS[i % 4])
            b = random_elem(rng, BASES[(i // 3) % 3], wb, TERM_COUNTS[(i // 4) % 4])
            ops.append(Op("oracle_" + kind, _job_oracle, (kind, k, a, b, wa + wb + k), _check_true))
    rng.shuffle(ops)
    return grids + ops


# -- cli ---------------------------------------------------------------------

CLI_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CLI_PRODUCTS = 8      # eval commands per product operator
CLI_UNARY = 12        # convert, coproduct and antipode commands each
CLI_EXPAND = 14
CLI_KP = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3))
CLI_QSS = (("kp", 1), ("kp", 2), ("kp", 3), ("kp", 4), ("cancel", 3), ("closure", 3))
# verify suites whose default run takes over 0.1 s beyond start-up on a
# 2-core VM (shuffle-oracle, weak-nonassoc, bullet-oracle, recursion) are left out:
# a pass must stay near 10 s so that a run holds four passes
CLI_SUITES = ("antipode", "antipode-F", "antipode-bullet", "delta-derivation",
              "distributivity", "f-rules", "generation", "kp", "kp-classical",
              "lemma-iter", "newton", "qss-cancel", "qss-closure", "qss-kp", "qss-y-zero")
_TENSOR_LINE = re.compile(r"(-)?(?:(\d+(?:/\d+)?)\*)?(1|M\[[\d,]*\]) \(x\) (1|M\[[\d,]*\])")


def cli_command(argv) -> list:
    """The process a CLI op starts."""
    return [sys.executable, "-m", "quasisym.cli", *argv]


def run_cli(argv, command=cli_command):
    """Run one CLI command in a fresh process; (exit code, stdout)."""
    proc = subprocess.run(command(argv), cwd=ROOT, env=CLI_ENV, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def _comp_of(atom: str):
    return Composition() if atom == "1" else Composition(
        int(p) for p in atom[2:-1].split(",") if p)


def _parse_tensor(text: str):
    """The coproduct printout as a {(left, right): coefficient} map, or None."""
    terms = {}
    for line in text.splitlines():
        m = _TENSOR_LINE.fullmatch(line)
        if m is None:
            return None
        coeff = Fraction(m.group(2) or 1) * (-1 if m.group(1) else 1)
        terms[(_comp_of(m.group(3)), _comp_of(m.group(4)))] = coeff
    return terms


def _check_cli(op, out) -> bool:
    code, stdout = out
    return code == 0 and op.expect(stdout)


def _expect_text(expected):
    """A stdout check against text computed in process, once, when first needed."""
    memo = []

    def matches(stdout):
        if not memo:
            memo.append(expected())
        return stdout == memo[0]
    return matches


def _expect_coproduct(a):
    def matches(stdout):
        return _parse_tensor(stdout) == quasisym.coproduct(a).terms
    return matches


def _suite_line(name, results) -> str:
    """The CLI's report line for a suite's (label, passed) results computed in process.

    Only this line may appear: a failed case adds a FAIL line to the CLI's
    output and exit code 1, so the command's check fails.
    """
    passed = sum(1 for _, ok in results if ok)
    return f"{name}: {passed}/{len(results)} passed\n"


def build_cli(seed: int) -> list:
    rng = random.Random(seed)
    ops = []

    def add(kind, argv, matches):
        ops.append(Op(kind, run_cli, (argv,), _check_cli, matches))

    api = quasisym  # the package's public names
    for symbol, kind in (("*", "mul"), (".{k}.", "bullet"), ("^{k}^", "hat_bullet")):
        for i in range(CLI_PRODUCTS):
            k = 1 + i % 2 if kind != "mul" else 0
            wa = 1 + i % 2
            a = random_elem(rng, BASES[i % 3], wa, TERM_COUNTS[i % 2])
            wb = 1 + (i // 2) % 2 + (kind == "mul")  # mul has no k to add to the degree
            b = random_elem(rng, BASES[(i // 3) % 3], wb, 2)
            expr = f"({render(a)}) {symbol.format(k=k)} ({render(b)})"
            product = (lambda a=a, b=b: api.mul(a, b)) if kind == "mul" else (
                lambda a=a, b=b, k=k, f=getattr(api, kind): f(k, a, b))
            add("eval", ["eval", expr], _expect_text(lambda p=product: format_elem(p()) + "\n"))
    for i in range(CLI_UNARY):
        a = random_elem(rng, BASES[i % 3], 2 + i % 4, TERM_COUNTS[i % 4])
        target = [t for t in BASES if t != a.basis][(i // 3) % 2]
        add("convert", ["convert", "--to", target, render(a)],
            _expect_text(lambda a=a, t=target: format_elem(api.to_basis(a, t)) + "\n"))
    for i in range(CLI_UNARY):
        a = random_elem(rng, BASES[i % 3], 2 + i % 4, TERM_COUNTS[i % 4])
        add("coproduct", ["coproduct", render(a)], _expect_coproduct(a))
    for i in range(CLI_UNARY):
        a = random_elem(rng, BASES[i % 3], 2 + i % 4, TERM_COUNTS[i % 4])
        add("antipode", ["antipode", render(a)],
            _expect_text(lambda a=a: format_elem(api.antipode(a)) + "\n"))
    for i in range(CLI_EXPAND):
        a = random_elem(rng, BASES[i % 3], 2 + i % 4, TERM_COUNTS[i % 3])
        n = 2 + i % 3
        add("expand", ["expand", "--vars", str(n), render(a)],
            _expect_text(lambda a=a, n=n: repr(api.expand(a, n)) + "\n"))
    for m, n in CLI_KP:
        add("kp", ["kp", "--m", str(m), "--n", str(n), "--certify", str(m + n + 2)],
            _expect_text(lambda m=m, n=n: _kp_report(m, n)))
    for suite, n in CLI_QSS:
        add("qss-verify", ["qss-verify", "--N", str(n), "--suite", suite],
            _expect_text(lambda s=suite, n=n: _qss_report(s, n)))
    for name in CLI_SUITES:
        add("verify", ["verify", name],
            _expect_text(lambda name=name: _suite_line(name, quasisym.suites.run_suite(name))))
    rng.shuffle(ops)
    return ops


def _kp_report(m, n) -> str:
    lhs, rhs = quasisym.kp_identity(m, n)
    certified = quasisym.suites.certify_kp(m, n, m + n + 2)
    word = lambda ok: "PASS" if ok else "FAIL"
    return (f"kp m={m} n={n}: {word(lhs == rhs)}\n"
            f"oracle certification @N={m + n + 2}: {word(certified)}\n")


def _qss_report(suite, n) -> str:
    """What ``qss-verify`` prints; its cancel and closure suites run at weight 3."""
    if suite == "kp":
        return _suite_line("qss-kp", [(n, quasisym.qss_kp_check(n))])
    suites = quasisym.suites
    run = suites.suite_qss_cancel if suite == "cancel" else suites.suite_qss_closure
    return _suite_line(f"qss-{suite}", list(run(max_weight=3, nvars=n)))


BUILDERS = {"algebra": build_algebra, "certify": build_certify, "cli": build_cli}


def build(workload: str, seed: int) -> list:
    return BUILDERS[workload](seed)
