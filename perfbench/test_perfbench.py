"""Self-tests of the benchmark: its output checks catch wrong answers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import pytest

import run
import workloads
from quasisym import _core, products

ALGEBRA = workloads.build("algebra", 1)


def _of_kind(ops, kind, count=20):
    return [op for op in ops if op.kind == kind][:count]


def _failures(ops) -> int:
    _, _, outputs, _ = run.run_pass(ops)
    return run.check(ops, outputs).count(False)


@pytest.fixture(autouse=True)
def cold_caches():
    yield
    workloads.clear_caches()  # drop whatever a test left in the kernel caches


def test_same_seed_same_inputs():
    again = workloads.build("algebra", 1)
    assert [(op.kind, repr(op.args), op.expect) for op in again] == [
        (op.kind, repr(op.args), op.expect) for op in ALGEBRA]
    assert repr(workloads.build("algebra", 2)[0].args) != repr(again[0].args)


def test_clean_ops_pass_their_checks():
    ops = [op for kind, _ in workloads.ALGEBRA_MIX for op in _of_kind(ALGEBRA, kind, 8)]
    assert _failures(ops) == 0


def test_corrupted_kernel_cache_fails_ops(monkeypatch):
    clear = workloads.clear_caches

    def clear_then_corrupt():
        clear()
        # a caller writing into the shared dict the cache handed out
        _core.quasi_shuffle((1,), (1,))[(9,)] = 5

    monkeypatch.setattr(workloads, "clear_caches", clear_then_corrupt)
    assert _failures(_of_kind(ALGEBRA, "mul")) > 0


@pytest.mark.parametrize("workload, kind", [("algebra", "bullet"), ("certify", "oracle_bullet")])
def test_wrong_structure_constant_fails_ops(monkeypatch, workload, kind):
    def without_merge(k, A, B):
        yield A + (k,) + B  # drops M_{A(k+b)B'}

    ops = _of_kind(workloads.build(workload, 1), kind)
    assert _failures(ops) == 0
    monkeypatch.setattr(products, "_bullet_words", without_merge)
    assert _failures(ops) > 0


def test_cli_check_compares_stdout_with_the_api():
    op = _of_kind(workloads.build("cli", 1), "antipode", 1)[0]
    code, stdout = op()
    assert code == 0 and op.check(op, (code, stdout))
    assert not op.check(op, (code, stdout.replace("M[", "F[", 1)))
    assert not op.check(op, (1, stdout))


def test_trace_records_layers_and_restores_names():
    original = products.mul
    ops = _of_kind(ALGEBRA, "mul", 5)
    tracer = run.Tracer()
    tracer.install()
    try:
        wall, _, _, _ = run.run_pass(ops, tracer)
    finally:
        tracer.remove()
    assert products.mul is original
    totals = tracer.summary()
    assert totals["products.mul.calls"] == 5
    assert totals["kernel.quasi_shuffle.calls"] > 0
    assert "oracle.expand.calls" not in totals
    self_times = [v for k, v in totals.items() if k.endswith(".self_s")]
    assert min(self_times) >= 0 and sum(self_times) <= wall


def test_a_reading_is_the_latency_over_its_neighbouring_references():
    assert run.readings([3.0, 8.0], [1.0, 2.0, 6.0]) == [2.0, 2.0]
    _, latencies, _, references = run.run_pass(_of_kind(ALGEBRA, "antipode", 3),
                                               reference=run.reference_loop)
    assert len(references) == len(latencies) + 1 and min(references) > 0
