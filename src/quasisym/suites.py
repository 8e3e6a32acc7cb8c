"""Enumerated identity suites.

A suite yields its cases in a deterministic order.  An identity case is
(label, lhs, rhs); a check that a function decides itself, such as
`certify_kp` or `closure_probe`, is (label, passed).  `decide` alone compares
lhs with rhs, and `run_suite` returns (label, verdict) 2-tuples, which the CLI
`verify` subcommand, the acceptance tests and the benchmark read.
"""

from __future__ import annotations

import sys
from functools import lru_cache, partial, reduce
from itertools import product
from math import inf

from quasisym.composition import Composition, enumerate_compositions, positive_index
from quasisym.elements import (
    QSymElem, counit, format_ratios, monomial, one, scale, to_basis,
)
from quasisym.hopf import (
    antipode, antipode_axiom_left, antipode_axiom_right, antipode_F, coproduct, m_k,
    tensor_bullet_left, tensor_bullet_right, tensor_mul, tensor_of,
)
from quasisym.kp import (
    certify_kp, complete_h, kp_classical_identity, kp_identity, power_sum, schur_substitution,
)
from quasisym.oracle import Polynomial, expand, expand_bullet, poly_mul
from quasisym.products import bullet, bullet_via_first, elementary_F, factorize_F, hat_bullet, mul
from quasisym.qss import cancel_cases, closure_probe, qss_kp_check, qss_M, set_y_zero_x_vector


class Residual:
    """The verdict on a failed identity case: falsy, and carries lhs - rhs.
    Its text is the first 3 terms of lhs - rhs in canonical order, and the term count."""

    def __init__(self, diff):
        self.diff = diff

    def __bool__(self):
        return False

    def __str__(self):
        terms = self.diff.text_terms()
        shown = format_ratios(terms[:3]) + (" + ..." if len(terms) > 3 else "")
        return f"{shown} ({len(terms)} term{'' if len(terms) == 1 else 's'})"


def decide(case):
    """The verdict on one case: truthy when it passed.  A (label, passed) case
    is its own verdict; a failed (label, lhs, rhs) case gives a Residual."""
    if len(case) == 2:
        return case[1]
    _, lhs, rhs = case
    return True if lhs == rhs else Residual(lhs - rhs)


_m_elem = partial(monomial, "M")


def _pairs(max_total_weight):
    comps = enumerate_compositions(max_total_weight)
    return [(a, b) for a, b in product(comps, repeat=2) if a.weight + b.weight <= max_total_weight]


def suite_shuffle_oracle(max_weight: int = 4, nvars: int = 8):
    """mul against polynomial multiplication of expansions."""
    comps = enumerate_compositions(max_weight)
    for a, b in product(comps, repeat=2):
        ea, eb = _m_elem(a), _m_elem(b)
        lhs = expand(mul(ea, eb), nvars)
        yield (f"M{a!r}*M{b!r} @N={nvars}", lhs, poly_mul(expand(ea, nvars), expand(eb, nvars)))


def suite_bullet_oracle(max_total_weight: int = 4, max_k: int = 3, nvars: int = 10):
    """bullet and hat_bullet structure constants against direct summation."""
    for a, b in _pairs(max_total_weight):
        ea, eb = _m_elem(a), _m_elem(b)
        for k in range(1, max_k + 1):
            yield (f"M{a!r} .{k}. M{b!r} @N={nvars}",
                   expand_bullet(k, ea, eb, nvars), expand(bullet(k, ea, eb), nvars))
            yield (f"M{a!r} ^{k}^ M{b!r} @N={nvars}",
                   expand_bullet(k, ea, eb, nvars, hat=True), expand(hat_bullet(k, ea, eb), nvars))


def suite_weak_nonassoc(max_weight: int = 2, max_k: int = 2):
    """(a o_k (b o_m c)) o_n d = a o_k ((b o_m c) o_n d)."""
    comps = enumerate_compositions(max_weight)
    ks = range(1, max_k + 1)
    for a, b, c, m in product(comps, comps, comps, ks):
        mid = bullet(m, _m_elem(b), _m_elem(c))
        for d, k, n in product(comps, ks, ks):
            yield (f"assoc M{a!r},(M{b!r}.{m}.M{c!r}),M{d!r} k={k} n={n}",
                   bullet(n, bullet(k, _m_elem(a), mid), _m_elem(d)),
                   bullet(k, _m_elem(a), bullet(n, mid, _m_elem(d))))


def suite_lemma_iter(max_weight: int = 4, max_k: int = 3):
    """a o_k (1 o_l b) - (a o_k 1) o_l b = a o_{k+l} b."""
    comps = enumerate_compositions(max_weight)
    ks = range(1, max_k + 1)
    for a, b in product(comps, repeat=2):
        ea, eb = _m_elem(a), _m_elem(b)
        for k, l in product(ks, repeat=2):
            lhs = bullet(k, ea, bullet(l, one(), eb)) - bullet(l, bullet(k, ea, one()), eb)
            yield (f"iter M{a!r} M{b!r} k={k} l={l}", lhs, bullet(k + l, ea, eb))


def suite_generation(max_weight: int = 6):
    """Iterated first-product expressions rebuild every M_C."""
    for c in enumerate_compositions(max_weight)[1:]:
        e = reduce(lambda acc, part: bullet_via_first(part, acc, one()), c, one())
        yield (f"generate M{c!r}", e, _m_elem(c))


def suite_delta_derivation(max_total_weight: int = 4, max_k: int = 3):
    """Delta(a o_n b) = Delta(a) o_n b + a o_n Delta(b)."""
    for a, b in _pairs(max_total_weight):
        ea, eb = _m_elem(a), _m_elem(b)
        da, db = coproduct(ea), coproduct(eb)
        for n in range(1, max_k + 1):
            rhs = tensor_bullet_right(da, n, eb) + tensor_bullet_left(ea, n, db)
            yield (f"Delta(M{a!r}.{n}.M{b!r})", coproduct(bullet(n, ea, eb)), rhs)


def suite_distributivity(max_total_weight: int = 3, max_k: int = 3):
    """c (a o_m b) = m_m(Delta(c) (a (x) b))."""
    comps = enumerate_compositions(max_total_weight)
    for a, b, c in product(comps, repeat=3):
        if a.weight + b.weight + c.weight > max_total_weight:
            continue
        ea, eb, ec = _m_elem(a), _m_elem(b), _m_elem(c)
        spread = tensor_mul(coproduct(ec), tensor_of(ea, eb))
        for m in range(1, max_k + 1):
            yield (f"M{c!r}*(M{a!r}.{m}.M{b!r})", mul(ec, bullet(m, ea, eb)), m_k(m, spread))


def suite_recursion(max_prefix_weight: int = 3, max_k: int = 3, max_weight_a: int = 4):
    """M_{C(k)} a = m_k((M_C (x) 1) Delta(a))."""
    prefixes = enumerate_compositions(max_prefix_weight)
    elems = enumerate_compositions(max_weight_a)
    for c, k in product(prefixes, range(1, max_k + 1)):
        ck = Composition(c + (k,))
        left = _m_elem(ck)
        for a in elems:
            ea = _m_elem(a)
            yield (f"M{ck!r}*M{a!r}", mul(left, ea),
                   m_k(k, tensor_mul(tensor_of(_m_elem(c), one()), coproduct(ea))))


def suite_antipode(max_weight: int = 6):
    """Both antipode axioms plus involutivity on every M_C."""
    for c in enumerate_compositions(max_weight):
        e = _m_elem(c)
        target = counit(e) * one()
        ok = (
            antipode_axiom_left(e) == target
            and antipode_axiom_right(e) == target
            and antipode(antipode(e)) == e
        )
        yield (f"antipode axioms M{c!r}", ok)


def suite_antipode_bullet(max_weight: int = 4, max_k: int = 3):
    """S(a o_n b) = -S(b) o_n S(a)."""
    comps = enumerate_compositions(max_weight)
    for a, b in product(comps, repeat=2):
        ea, eb = _m_elem(a), _m_elem(b)
        sa, sb = antipode(ea), antipode(eb)
        for n in range(1, max_k + 1):
            yield (f"S(M{a!r}.{n}.M{b!r})", antipode(bullet(n, ea, eb)), -bullet(n, sb, sa))


def suite_antipode_F(max_weight: int = 6):
    """S(F_C) = (-1)^|C| F_{omega(C)} against the M-basis antipode."""
    for c in enumerate_compositions(max_weight)[1:]:
        yield (f"S(F{c!r})", to_basis(antipode_F(c), "M"),
               antipode(to_basis(monomial("F", c), "M")))


def suite_F_rules(max_weight: int = 6):
    """The three fundamental-basis product facts."""
    f_in_m = lambda c: to_basis(monomial("F", c), "M")
    half = max_weight // 2
    lows = enumerate_compositions(half)
    highs = enumerate_compositions(max_weight - half)[1:]
    for a, b in product(lows, highs):
        rhs = f_in_m(a + (b[0] + 1,) + b[1:])
        yield (f"F{a!r} . F{b!r}", bullet(1, f_in_m(a), f_in_m(b)), rhs)
    for m, n in product(range(max_weight), repeat=2):
        if m + n < max_weight:
            yield (f"elementary F m={m} n={n}", elementary_F(m, n), f_in_m((m + 1,) + (1,) * n))
    for c in enumerate_compositions(max_weight)[1:]:
        prod = reduce(partial(bullet, 1), [to_basis(f, "M") for f in factorize_F(c)])
        yield (f"factorize F{c!r}", prod, f_in_m(c))


def suite_kp(max_mn: int = 3, certify_upto: int = 0):
    """The identity family; members with m, n <= certify_upto are also
    recomputed through the oracle at N = m + n + 2, as a case of their own."""
    for m, n in product(range(1, max_mn + 1), repeat=2):
        yield (f"kp m={m} n={n}", *kp_identity(m, n))
        if m <= certify_upto and n <= certify_upto:
            yield (f"kp m={m} n={n} oracle@N={m + n + 2}", certify_kp(m, n, m + n + 2))


def suite_kp_classical(certify_nvars: int = 4):
    """The coefficient-4/3/6/6 identity, exact and through the oracle."""
    yield ("kp classical exact", *kp_classical_identity())
    p1, p2, p3 = power_sum(1), power_sum(2), power_sum(3)
    yield ("p1^2.p1 + p1.p1^2 = p1*(p1.p1)",
           bullet(1, mul(p1, p1), p1) + bullet(1, p1, mul(p1, p1)), mul(p1, bullet(1, p1, p1)))
    n = certify_nvars
    e = lambda q: expand(q, n)
    poly_lhs = (
        4 * poly_mul(e(p1), e(p3))
        - 3 * poly_mul(e(p2), e(p2))
        - poly_mul(poly_mul(e(p1), e(p1)), poly_mul(e(p1), e(p1)))
    )
    poly_rhs = -6 * poly_mul(e(p1), expand_bullet(1, p1, p1, n)) + 6 * (
        expand_bullet(1, p1, p2, n) - expand_bullet(1, p2, p1, n)
    )
    yield (f"kp classical oracle @N={n}", poly_lhs, poly_rhs)


def suite_newton(max_n: int = 6):
    """h_n against Newton's recursion, Mt[1^n] and the Schur substitution."""
    from fractions import Fraction

    @lru_cache(maxsize=None)
    def newton(n: int) -> QSymElem:
        """h_n from n h_n = sum_k p_k h_{n-k}, independent of complete_h."""
        if n == 0:
            return one()
        terms = (mul(power_sum(k), newton(n - k)) for k in range(1, n + 1))
        return scale(Fraction(1, n), sum(terms, QSymElem("M", {})))

    for n in range(0, max_n + 1):
        hn = complete_h(n)
        yield (f"h_{n} = sum of M_C", newton(n), hn)
        yield (f"h_{n} = Mt[1^{n}]", hn, to_basis(monomial("Mt", (1,) * n), "M"))
        yield (f"h_{n} schur substitution", hn, schur_substitution(n))


def suite_qss_kp(max_n: int = 4):
    for n in range(1, max_n + 1):
        yield (f"qss kp identity N={n}", qss_kp_check(n))


def suite_qss_cancel(max_weight: int = 4, nvars: int = 4):
    """t-substitution independence of the generated elements, all indices."""
    yield from cancel_cases(max_weight, nvars)


def suite_qss_y_zero(max_weight: int = 4, nvars: int = 4):
    """y = 0 specialization reproduces the one-alphabet expansions."""
    for c in enumerate_compositions(max_weight):
        got = Polynomial(nvars, set_y_zero_x_vector(qss_M(c, nvars)))
        yield (f"y=0 on M{c!r} @N={nvars}", got, expand(monomial("M", c), nvars))


def suite_qss_closure(max_weight: int = 4, nvars: int = 5):
    yield from closure_probe(max_weight, nvars)


# name -> (runner(max_weight, max_k), the max_weight `verify` uses without
# flags); the defaults keep the whole sweep well under a minute
SUITES = {
    "shuffle-oracle": (lambda w, k: suite_shuffle_oracle(max_weight=w, nvars=8), 3),
    "bullet-oracle": (lambda w, k: suite_bullet_oracle(max_total_weight=w, max_k=k, nvars=10), 3),
    "weak-nonassoc": (lambda w, k: suite_weak_nonassoc(max_weight=w, max_k=k), 2),
    "lemma-iter": (lambda w, k: suite_lemma_iter(max_weight=w, max_k=k), 3),
    "generation": (lambda w, k: suite_generation(max_weight=w), 5),
    "delta-derivation": (lambda w, k: suite_delta_derivation(max_total_weight=w, max_k=k), 3),
    "distributivity": (lambda w, k: suite_distributivity(max_total_weight=w, max_k=k), 3),
    "recursion": (lambda w, k: suite_recursion(max_prefix_weight=w, max_k=k), 2),
    "antipode": (lambda w, k: suite_antipode(max_weight=w), 4),
    "antipode-bullet": (lambda w, k: suite_antipode_bullet(max_weight=w, max_k=k), 3),
    "antipode-F": (lambda w, k: suite_antipode_F(max_weight=w), 5),
    "f-rules": (lambda w, k: suite_F_rules(max_weight=w), 5),
    "kp": (lambda w, k: suite_kp(max_mn=w), 3),
    "kp-classical": (lambda w, k: suite_kp_classical(), 0),
    "newton": (lambda w, k: suite_newton(max_n=w), 5),
    "qss-kp": (lambda w, k: suite_qss_kp(max_n=w), 3),
    "qss-cancel": (lambda w, k: suite_qss_cancel(max_weight=w, nvars=4), 3),
    "qss-y-zero": (lambda w, k: suite_qss_y_zero(max_weight=w, nvars=4), 3),
    "qss-closure": (lambda w, k: suite_qss_closure(max_weight=w, nvars=5), 3),
}
# the largest (max weight, max k) a suite runs: past them its cases grow too fast
_CAPS = {"shuffle-oracle": (4, inf), "weak-nonassoc": (2, 2), "distributivity": (3, inf),
         "recursion": (3, inf), "antipode-bullet": (4, inf), "kp": (8, inf), "qss-kp": (4, inf),
         "qss-cancel": (4, inf), "qss-y-zero": (4, inf), "qss-closure": (4, inf),
         "lemma-iter": (4, 4), "antipode-F": (10, inf), "f-rules": (10, inf)}
DEFAULT_MAX_K = 2


def run_suite(name: str, max_weight: int | None = None, max_k: int | None = None):
    """One suite's (label, verdict) pairs, each case read through `decide`.
    Unknown names raise KeyError, and a max_weight below 0 or a max_k below 1
    raises ValueError; a bound above the suite's cap runs at the cap, noted on stderr."""
    runner, default_weight = SUITES[name]
    mw = max_weight if max_weight is not None else default_weight
    mk = max_k if max_k is not None else DEFAULT_MAX_K
    asked = positive_index(mw, "max weight", least=0), positive_index(mk, "max k")
    bounds = [min(b, cap) for b, cap in zip(asked, _CAPS.get(name, asked))]
    for what, b, ran in zip(("max weight", "max k"), asked, bounds):
        if ran < b:
            sys.stderr.write(f"note: {name} runs {what} {ran}, not the {b} asked\n")
    return [(case[0], decide(case)) for case in runner(*bounds)]
