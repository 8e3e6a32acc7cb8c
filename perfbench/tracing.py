"""Span tracer for the benchmark's traced run.

The tracer replaces a public function at every name a caller binds it to
(``quasisym.products.quasi_shuffle``, ``quasisym.hopf.to_basis``, ...), so
each call that crosses a layer boundary records one span: name, start,
end and the span that was open when it began.  A kernel is not wrapped in
its own module, so its recursive calls stay inside one span.  Spans live
in flat arrays until ``write``; self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns


# (metric prefix, module, attribute, output size counted, wrap in the
# defining module too).  Kernels are left alone in their defining module:
# their recursion binds there.  "terms_out" counts the terms of returned
# elements and polynomials, "monomials" the exponent vectors of a list.
TARGETS = (
    ("kernel.quasi_shuffle", "quasisym._core", "quasi_shuffle", None, False),
    ("kernel.chain_monomials", "quasisym._core", "chain_monomials", "monomials", False),
    ("elements.to_basis", "quasisym.elements", "to_basis", "terms_out", True),
    ("products.mul", "quasisym.products", "mul", "terms_out", True),
    ("products.bullet", "quasisym.products", "bullet", "terms_out", True),
    ("products.hat_bullet", "quasisym.products", "hat_bullet", "terms_out", True),
    ("hopf.coproduct", "quasisym.hopf", "coproduct", "terms_out", True),
    ("hopf.antipode", "quasisym.hopf", "antipode", "terms_out", True),
    ("kp.complete_h", "quasisym.kp", "complete_h", "terms_out", True),
    ("kp.kp_identity", "quasisym.kp", "kp_identity", None, True),
    ("oracle.expand", "quasisym.oracle", "expand", "terms_out", True),
    ("oracle.expand_bullet", "quasisym.oracle", "expand_bullet", "terms_out", True),
    ("oracle.poly_mul", "quasisym.oracle", "poly_mul", "terms_out", True),
    ("suites.certify_kp", "quasisym.suites", "certify_kp", None, True),
    ("suites.run_suite", "quasisym.suites", "run_suite", None, True),
    ("qss.qss_bullet", "quasisym.qss", "qss_bullet", None, True),
    ("qss.in_span", "quasisym.qss", "in_span", None, True),
    ("cli.main", "quasisym.cli", "main", None, True),
)

# classes whose instance constructions are counted, not spanned
COUNTED = (
    ("elements.QSymElem.constructed", "quasisym.elements", "QSymElem", "__init__"),
    ("composition.Composition.constructed", "quasisym.composition", "Composition", "__new__"),
)

# kernel caches whose statistics the report carries
KERNELS = (("kernel.quasi_shuffle", "quasi_shuffle"), ("kernel.chain_monomials", "chain_monomials"))


def kernel_cache_stats() -> dict:
    """Hits, misses and entries of the kernel caches since they were last cleared."""
    core = sys.modules["quasisym._core"]
    out = {}
    for prefix, attr in KERNELS:
        info = getattr(core, attr).cache_info()
        out[f"{prefix}.hits"] = info.hits
        out[f"{prefix}.misses"] = info.misses
        out[f"{prefix}.entries"] = info.currsize
    return out


class Tracer:
    """Records spans and counts while installed; ``remove`` restores every name."""

    def __init__(self):
        self.names = []  # span name table; spans store indices into it
        self.name_ids = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts = {}  # metric -> summed count (output sizes, constructions)
        self.max_terms = 0
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named name."""
        sid = self._id(name)
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, prefix, fn, size):
        span = self.span
        counts = self.counts
        key = f"{prefix}.{size}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = span(prefix, fn, *args, **kwargs)
            if size == "monomials":
                counts[key] = counts.get(key, 0) + len(out)
            elif size == "terms_out":
                n = len(out.terms)
                counts[key] = counts.get(key, 0) + n
                self.max_terms = max(self.max_terms, n)
            return out

        return traced

    def install(self):
        """Wrap every target at each quasisym module attribute bound to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "quasisym" or name.startswith("quasisym."))]
        for prefix, modname, attr, size, in_home in TARGETS:
            if modname not in sys.modules:
                continue
            original = getattr(sys.modules[modname], attr)
            home = sys.modules.get(original.__module__)
            traced = self._wrap(prefix, original, size)
            for module in modules:
                if getattr(module, attr, None) is original and (in_home or module is not home):
                    self._patches.append((module, attr, original))
                    setattr(module, attr, traced)
        for metric, modname, cls_name, method in COUNTED:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._counting(metric, original, method == "__new__"))

    def _counting(self, metric, original, is_new):
        counts = self.counts
        counts.setdefault(metric, 0)
        if is_new:
            def counted_new(cls, *args, **kwargs):
                counts[metric] += 1
                return original(cls, *args, **kwargs)
            return staticmethod(counted_new)

        def counted_init(self, *args, **kwargs):
            counts[metric] += 1
            original(self, *args, **kwargs)
        return counted_init

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """calls and self_s for every span name, plus the recorded counts."""
        n = len(self.start)
        cover = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                cover[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            sid = self.name[i]
            calls[sid] += 1
            self_ns[sid] += self.end[i] - self.start[i] - cover[i]
        out = dict(self.counts)
        for sid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[sid]
            out[f"{name}.self_s"] = self_ns[sid] / 1e9
        out["input.max_terms"] = self.max_terms
        return out

    def write(self, path, prefix: str = "", root: str = "-1"):
        """Append the spans as tab-separated `id name start_ns end_ns parent_id` lines.

        Ids are ``prefix`` plus the span's index; spans opened at top level
        get ``root`` as their parent, which links a child process's spans to
        the span of the command that started it.
        """
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                p = self.parent[i]
                fh.write(f"{prefix}{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{prefix}{p if p >= 0 else root}\n")
