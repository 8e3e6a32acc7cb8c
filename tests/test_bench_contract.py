"""What the benchmark needs from the package.

perfbench/tracing.py wraps public functions at every module binding,
counts QSymElem and Composition constructions and reads the kernel
caches' statistics; perfbench/workloads.py computes in process the
stdout it expects from each `cli` command, and before each pass empties
every package attribute that has a `cache_clear`.  The test suite does
not run the benchmark, so these tests load both files by path and drive
them: a refactor that breaks the benchmark harness fails here, not as
failed operations in a benchmark run.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from quasisym import _core, elements, kp, oracle, products
from quasisym.cli import main
from quasisym.elements import QSymElem
from quasisym.suites import run_suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_stdout(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def test_cli_workload_expects_what_the_cli_prints(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the loader puts src/ first
    workloads = load("workloads")
    for name in workloads.CLI_SUITES:
        assert workloads._suite_line(name, run_suite(name)) == cli_stdout("verify", name)
    for suite, n in workloads.CLI_QSS:
        assert workloads._qss_report(suite, n) == cli_stdout(
            "qss-verify", "--N", str(n), "--suite", suite)
    for m, n in workloads.CLI_KP:
        assert workloads._kp_report(m, n) == cli_stdout(
            "kp", "--m", str(m), "--n", str(n), "--certify", str(m + n + 2))


def test_tracer_counts_calls_and_restores_every_name():
    tracing = load("tracing")
    originals = {
        "mul": products.mul, "bullet": products.bullet, "expand": oracle.expand,
        "quasi_shuffle": products.quasi_shuffle, "init": QSymElem.__dict__["__init__"],
    }
    a = QSymElem("F", {(1, 2): 3, (2,): 1})
    b = QSymElem("Mt", {(1,): -2})
    _core.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert products.mul is not originals["mul"]
        products.mul(a, b)
        products.bullet(2, a, b)
        oracle.expand(a, 3)
        elements.QSymElem("M", {(1,): 1})
    finally:
        tracer.remove()
    # the runner reads both once the tracer is removed
    totals = tracer.summary()
    stats = tracing.kernel_cache_stats()
    for name in ("products.mul", "products.bullet", "oracle.expand"):
        assert totals[f"{name}.calls"] == 1
        assert totals[f"{name}.terms_out"] > 0
    assert totals["kernel.quasi_shuffle.calls"] > 0
    assert totals["elements.QSymElem.constructed"] >= 1
    assert stats["kernel.quasi_shuffle.misses"] > 0
    assert stats["kernel.quasi_shuffle.hits"] >= 0
    assert stats["kernel.chain_monomials.misses"] > 0
    assert products.mul is originals["mul"]
    assert products.bullet is originals["bullet"]
    assert oracle.expand is originals["expand"]
    assert products.quasi_shuffle is originals["quasi_shuffle"] is _core.quasi_shuffle
    assert QSymElem.__dict__["__init__"] is originals["init"]


def test_benchmark_clear_caches_empties_the_kernel_caches_and_word_table(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    workloads = load("workloads")
    a = QSymElem("F", {(1, 2): 3, (2,): 1})
    for _ in range(2):  # the second call reuses the caches the first one found
        products.mul(a, a)
        _core.chain_monomials((1, 2), (True,), 3)
        assert _core.WORDS
        workloads.clear_caches()
        assert _core.quasi_shuffle.cache_info().currsize == 0
        assert _core.chain_monomials.cache_info().currsize == 0
        assert not _core.WORDS


def test_benchmark_clear_caches_empties_the_kp_memos(monkeypatch):
    # each certify pass starts cold only if the family's shared terms go too
    monkeypatch.setattr(sys, "path", list(sys.path))
    workloads = load("workloads")
    memos = (kp._h_words, kp._bullet_sum, kp._oracle_sum, kp._oracle_lhs)
    for _ in range(2):
        kp.kp_identity(2, 3)
        assert kp.certify_kp(3, 2, 6)
        assert all(memo.cache_info().currsize for memo in memos)
        workloads.clear_caches()
        assert not any(memo.cache_info().currsize for memo in memos)
