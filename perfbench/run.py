"""Layered benchmark for quasisym.

    python3 perfbench/run.py --workload {algebra,certify,cli} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give every metric with its unit and the run's metadata.  Spans and the
full report go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import KERNELS, Tracer, kernel_cache_stats

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 9
# the reference host, on which timings are reported: a bare interpreter
# start takes BARE_START_S there and reference_loop REFERENCE_LOOP_S
BARE_START_S = 0.05
REFERENCE_LOOP_S = 0.0002
# an op's latency is the median of one reading per pass; a cli pass takes
# about 20 s, so a cli run holds two
MIN_PASSES = {"algebra": 4, "certify": 4, "cli": 2}
TRACE_ROUNDS = 3
START_PROBES = 7
BARE = [sys.executable, "-c", "pass"]

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    kernel = ("kernel.quasi_shuffle", "kernel.chain_monomials")
    for prefix in kernel:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s"),
                (f"{prefix}.hit_ratio", "ratio"), (f"{prefix}.hits", "count"),
                (f"{prefix}.misses", "count"), (f"{prefix}.entries", "count")]
    out.append(("kernel.chain_monomials.monomials", "count"))
    for prefix in ("elements.to_basis", "products.mul", "products.bullet",
                   "products.hat_bullet", "hopf.coproduct", "hopf.antipode",
                   "oracle.expand", "oracle.expand_bullet", "oracle.poly_mul"):
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s"),
                (f"{prefix}.terms_out", "count")]
    out += [("elements.QSymElem.constructed", "count"),
            ("composition.Composition.constructed", "count")]
    for prefix in ("kp.complete_h", "kp.kp_identity"):
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
    out += [("suites.certify_kp.self_s", "s"), ("qss.qss_bullet.self_s", "s"),
            ("qss.in_span.self_s", "s"), ("cli.interp_s", "s"), ("cli.import_s", "s"),
            ("cli.main.self_s", "s"), ("suites.run_suite.self_s", "s"),
            ("input.max_terms", "count"), ("trace.overhead_ratio", "ratio")]
    return out


class Raised:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc):
        self.error = f"{type(exc).__name__}: {exc}"


def run_pass(ops, tracer=None, reference=None):
    """Time every op once from cold caches; (wall seconds, latencies, outputs, references).

    ``reference``, if given, returns seconds and is called untimed before
    each op and once after the last, so that op i lies between
    references i and i + 1.
    """
    workloads.clear_caches()
    latencies, outputs, references = [], [], []
    t0 = time.perf_counter()
    for op in ops:
        if reference is not None:
            references.append(reference())
        s = time.perf_counter()
        try:
            out = op() if tracer is None else tracer.span("op." + op.kind, op)
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            out = Raised(exc)
        latencies.append(time.perf_counter() - s)
        outputs.append(out)
    if reference is not None:
        references.append(reference())
    return time.perf_counter() - t0, latencies, outputs, references


def check(ops, outputs) -> list:
    """Per op: did it return and pass its output check?"""
    ok = []
    for op, out in zip(ops, outputs):
        try:
            ok.append(not isinstance(out, Raised) and bool(op.check(op, out)))
        except Exception:  # a check that cannot even read the output fails the op
            ok.append(False)
    return ok


def same(x, y) -> bool:
    """Output of a later pass equal to the first pass's, basis included."""
    if isinstance(x, Raised) or isinstance(y, Raised):
        return False
    if hasattr(x, "terms"):
        return (type(x) is type(y) and getattr(x, "basis", None) == getattr(y, "basis", None)
                and x.terms == y.terms)
    return x == y


def mismatches(ok, outputs, reference) -> int:
    """Ops that failed their check or whose output differs from the reference pass."""
    return sum(1 for good, x, y in zip(ok, outputs, reference) if not (good and same(x, y)))


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def probe_seconds(argv, ready: bool = False) -> float:
    """Seconds from starting ``argv`` until it prints a line (ready) or exits."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=workloads.ROOT, env=workloads.CLI_ENV,
                            stdout=subprocess.PIPE, text=True)
    try:
        if ready:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready:
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or (ready and line.strip() != "ready"):
        raise RuntimeError(f"probe {argv} failed with exit code {proc.returncode}")
    return elapsed


# keys of the in-process reference loop: small tuples, as compositions are
_REFERENCE_KEYS = [(i % 7, i % 5, i % 3) for i in range(105)]


def reference_loop() -> float:
    """Seconds a fixed loop of dict and tuple work takes (about 0.2 ms): the host's speed, in process."""
    t0 = time.perf_counter()
    acc = {}
    for _ in range(16):
        for key in _REFERENCE_KEYS:
            acc[key] = acc.get(key, 0) + key[0] * key[1] - key[2]
    return time.perf_counter() - t0


def bare_start() -> float:
    """Seconds a bare ``python -c pass`` takes: the host's speed at this moment."""
    return probe_seconds(BARE)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds a fresh process takes to import quasisym, build the inputs and clear the caches."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    return probe_seconds(argv, ready=True)


def readings(latencies, references) -> list:
    """Each latency over the mean of the references on either side of it."""
    return [t / (r0 + r1) * 2 for t, r0, r1 in zip(latencies, references, references[1:])]


def relative_setup(workload: str, seed: int, bare: list) -> float:
    """One setup probe over the mean of the bare starts just before and after it.

    Both bare starts go to ``bare``.
    """
    before = bare_start()
    probe = setup_probe(workload, seed)
    after = bare_start()
    bare += (before, after)
    return readings([probe], [before, after])[0]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git, or 'unknown'."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, ops) -> dict:
    mix = {}
    for op in ops:
        mix[op.kind] = mix.get(op.kind, 0) + 1
    return {
        "workload": workload, "seed": seed, "python": platform.python_version(),
        "kernel_backend": workloads.quasisym.kernel_backend, "git_commit": git_commit(),
        "nproc": os.cpu_count(), "ops_per_pass": len(ops), "op_mix": mix,
    }


def timed_run(workload: str, seed: int, seconds: float, ops, report: dict):
    """Passes and setup probes until the next pass would overrun ``seconds``; end-to-end metrics.

    A run makes at least MIN_PASSES passes and SETUP_PROBES probes.

    The host's speed moves by up to 1.7x within minutes, so raw times of
    two runs do not compare.  Every timing is therefore read against the
    references timed just before and after it (bare interpreter starts
    for a setup probe and a ``cli`` command, ``reference_loop`` for an
    in-process op) and reported as seconds on the reference host, where
    the references take BARE_START_S and REFERENCE_LOOP_S.  An op's
    latency is the median of its readings over the passes, ``setup_s``
    the median of the probes' readings.
    """
    cli = workload == "cli"
    reference, nominal = (bare_start, BARE_START_S) if cli else (reference_loop, REFERENCE_LOOP_S)
    walls, latencies, setups, bare, references = [], [], [], [], []
    first, first_ok, failed, attempted = None, None, 0, 0
    rss = None
    start = time.perf_counter()
    while True:
        if time.perf_counter() - start >= len(setups) * seconds / SETUP_PROBES:
            setups.append(relative_setup(workload, seed, bare))
        wall, lat, outputs, refs = run_pass(ops, reference=reference)
        walls.append(wall)
        references += refs
        latencies.append(readings(lat, refs))
        attempted += len(ops)
        if first is None:
            rss = peak_rss_mb(workload)
            if workload != "cli":
                report["input"] = kernel_cache_stats()
                if workload == "algebra":
                    report["input"]["max_output_terms"] = max(
                        (len(out.terms) for out in outputs if hasattr(out, "terms")), default=0)
            first, first_ok = outputs, check(ops, outputs)
            failed += first_ok.count(False)
        else:
            failed += mismatches(first_ok, outputs, first)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES[workload] and elapsed + statistics.median(walls) > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(relative_setup(workload, seed, bare))
    if cli:
        bare += references
    per_op = [statistics.median(samples) * nominal for samples in zip(*latencies)]
    report.update(pass_walls=walls, setup_probes_over_bare=setups, bare_starts=len(bare),
                  median_bare_s=statistics.median(bare),
                  median_reference_s=statistics.median(references),
                  op_count=len(per_op), fail_ratio=failed / attempted)
    metrics = {
        "setup_s": statistics.median(setups) * BARE_START_S,
        "wall_s": sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1000,
        "op_p90_ms": percentile(per_op, 90) * 1000,
        "peak_rss_mb": rss,
    }
    return metrics, attempted, failed


def _add_totals(totals: dict, values: dict):
    """Sum per-layer values into totals; the largest term count is a maximum."""
    for key, value in values.items():
        if key == "input.max_terms":
            totals[key] = max(totals.get(key, 0), value)
        else:
            totals[key] = totals.get(key, 0) + value


def traced_cli_ops(ops, spans: Path, totals: dict) -> list:
    """The CLI ops, each command run under the tracer in its own process."""
    summary = OUT / "child-summary.json"
    index = itertools.count()

    def command(argv):
        return [sys.executable, str(HERE / "cli_child.py"), str(spans), f"c{next(index)}.",
                str(summary), "--", *argv]

    def run_traced(argv):
        summary.write_text("{}")
        out = workloads.run_cli(argv, command)
        _add_totals(totals, json.loads(summary.read_text()))
        return out

    return [workloads.Op(op.kind, run_traced, op.args, op.check, op.expect) for op in ops]


def traced_run(workload: str, seed: int, ops, report: dict):
    """Untraced and traced passes in turn; per-layer metrics and the spans file.

    The per-layer figures and the spans come from the first traced pass.
    The overhead ratio compares the best latencies of the traced passes
    with those of the untraced ones, as ``wall_s`` does; the in-process
    workloads alternate TRACE_ROUNDS pairs of passes, ``cli`` one pair.
    """
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.tsv"
    spans.write_text("")
    totals = {}
    plain_lat, traced_lat = [], []
    first_tracer, reference, ok, failed = None, None, None, 0
    for _ in range(1 if workload == "cli" else TRACE_ROUNDS):
        _, lat, plain, _ = run_pass(ops)
        plain_lat.append(lat)
        if reference is None:
            reference, ok = plain, check(ops, plain)
            failed += ok.count(False)
        else:
            failed += mismatches(ok, plain, reference)
        tracer = Tracer()
        if workload == "cli":
            _, lat, traced, _ = run_pass(traced_cli_ops(ops, spans, totals), tracer)
        else:
            tracer.install()
            try:
                _, lat, traced, _ = run_pass(ops, tracer)
            finally:
                tracer.remove()
            if first_tracer is None:
                totals.update(kernel_cache_stats())
        traced_lat.append(lat)
        failed += mismatches(ok, traced, reference)
        first_tracer = first_tracer or tracer
    _add_totals(totals, first_tracer.summary())
    first_tracer.write(spans)
    for prefix, _ in KERNELS:
        hits = totals.get(f"{prefix}.hits", 0)
        lookups = hits + totals.get(f"{prefix}.misses", 0)
        totals[f"{prefix}.hit_ratio"] = hits / lookups if lookups else 0.0
    if workload == "cli":
        bare = statistics.median(
            bare_start() for _ in range(START_PROBES))
        imported = statistics.median(
            probe_seconds([sys.executable, "-c", "import quasisym"]) for _ in range(START_PROBES))
        totals["cli.interp_s"] = bare
        totals["cli.import_s"] = imported - bare
    plain_wall = sum(map(min, zip(*plain_lat)))
    traced_wall = sum(map(min, zip(*traced_lat)))
    totals["trace.overhead_ratio"] = traced_wall / plain_wall
    names = [name for name, _ in per_layer_metrics()]
    attempted = len(ops) * (len(plain_lat) + len(traced_lat))
    report.update(op_count=len(ops), spans_file=str(spans.relative_to(HERE.parent)),
                  untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                  fail_ratio=failed / attempted,
                  layers_absent=[name for name in names if name not in totals])
    return {name: totals.get(name, 0) for name in names}, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        workloads.clear_caches()
        print("ready", flush=True)
        return 0

    report = {}
    if args.trace:
        ops = workloads.build(args.workload, args.seed)
        metrics, attempted, failed = traced_run(args.workload, args.seed, ops, report)
        units = dict(per_layer_metrics())
    else:
        ops = workloads.build(args.workload, args.seed)
        metrics, attempted, failed = timed_run(args.workload, args.seed, args.seconds, ops, report)
        units = dict(END_TO_END)
    report = dict(metadata(args.workload, args.seed, ops), **report)
    report["metrics"] = metrics

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {report['fail_ratio']:.6g} ratio")
    print("meta " + json.dumps(report, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
