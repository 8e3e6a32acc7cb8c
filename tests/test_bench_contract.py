"""What the benchmark's tracer needs from the package.

perfbench/tracing.py wraps public functions at every module binding,
counts QSymElem and Composition constructions and reads the kernel
caches' statistics.  The test suite does not run the benchmark, so this
test loads the tracer by path and drives it once: a refactor that breaks
the benchmark harness fails here.
"""

import importlib.util
from pathlib import Path

from quasisym import _core, elements, oracle, products
from quasisym.elements import QSymElem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_calls_and_restores_every_name():
    tracing = load_tracing()
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
