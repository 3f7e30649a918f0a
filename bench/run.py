"""statmanifold benchmark: one seeded workload, timed, with every result checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload curvature-scan --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one caller.  This process runs one operation
at a time, as a researcher's script or CLI sweep does, and BLAS is capped at
one thread.  The program is imported from ``src/`` of the same checkout; the
run fails without printing a result when that source is missing.

Times are scaled to a reference machine speed.  A fixed calibration kernel,
which never calls the library, is timed between ops; each pass's times are
multiplied by ``CAL_REF_S`` over the kernel's median time in that pass.  On a
shared host whose speed shifts by up to 1.8x for tens of seconds at a time,
this keeps a change in the library apart from a change in the host.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see README.md).  The line before it records
the environment, the seed, the speed scale and every failure by op kind.
``correct`` is false when any op of the workload fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("curvature-scan", "geodesic", "correlation")
BLAS_THREADS = 1
SETUP_PROBES = 5
CAL_REF_S = 2.0e-3    # kernel time that defines the reference speed
CAL_EVERY_S = 0.05    # op time between two kernel timings


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import statmanifold from this checkout's src/, or exit 2."""
    if not (SRC / "statmanifold" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'statmanifold'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import statmanifold

    if Path(statmanifold.__file__).resolve().parent != SRC / "statmanifold":
        sys.exit(f"error: imported statmanifold from {statmanifold.__file__}, not {SRC}")
    return statmanifold


def kernel_seconds() -> float:
    """Time the calibration kernel: interpreted arithmetic plus vectorised NumPy."""
    import numpy as np

    start = time.perf_counter()
    s = 0.0
    for i in range(20000):
        s += i * 0.5
    x = np.linspace(-3.0, 3.0, 16384)
    for k in range(10):
        s += float(np.dot(np.exp(-x * x * (1.0 + 0.01 * k)), x))
    return time.perf_counter() - start


def execute(op, tracer=None, request_id=None):
    """Run one op; returns (latency_s, failure reason or None)."""
    if tracer is not None:
        tracer.request_id = request_id
    start = time.perf_counter()
    try:
        outcome = op.call()
    except (Exception, SystemExit) as exc:  # a failed op must not end the pass
        return time.perf_counter() - start, type(exc).__name__
    latency = time.perf_counter() - start
    try:
        return latency, op.check(outcome)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return latency, f"unreadable output ({type(exc).__name__})"


class Tally:
    """Outcome of every op the run attempted; latencies in reference seconds."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.reasons = Counter()
        self.latencies = []
        self.scales = []
        self.work = 0.0
        self.passed_work = 0.0

    def add(self, op, latency, reason):
        self.attempted[op.kind] += 1
        self.latencies.append(latency)
        self.work += op.work
        if reason is None:
            self.passed_work += op.work
            return
        self.failed[op.kind] += 1
        self.reasons[f"{op.kind}: {reason}"] += 1


def run_pass(ops, tally, tracer=None):
    """Run the ops in order, timing the kernel between them.

    Returns the pass's speed scale, its time in reference seconds and its
    failed ops by kind.
    """
    kernel, results = [], []
    since_kernel = CAL_EVERY_S
    for i, op in enumerate(ops):
        if since_kernel >= CAL_EVERY_S:
            kernel.append(kernel_seconds())
            since_kernel = 0.0
        latency, reason = execute(op, tracer, i)
        since_kernel += latency
        results.append((op, latency, reason))
    scale = CAL_REF_S / statistics.median(kernel)
    tally.scales.append(scale)
    failed = Counter()
    for op, latency, reason in results:
        tally.add(op, scale * latency, reason)
        if reason is not None:
            failed[op.kind] += 1
    return scale, scale * sum(latency for _, latency, _ in results), failed


def measure_setup(args):
    """Median time, in reference seconds, of fresh interpreters that import,
    generate one pass of inputs and run one warm-up op of each kind."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        scale = CAL_REF_S / statistics.median(kernel_seconds() for _ in range(5))
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
        times.append(scale * (time.perf_counter() - start))
        if done.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{done.stderr}")
    return statistics.median(times)


def end_to_end(args, workloads, tally):
    """Untraced passes until --seconds elapse; the end-to-end metrics."""
    rates = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        ops = workloads.make_pass(args.workload, args.seed, index)
        _, seconds, _ = run_pass(ops, tally)
        rates.append(sum(op.work for op in ops) / seconds)
        index += 1
    lat_ms = [1e3 * t for t in tally.latencies]
    metrics = {
        # median attempted-work rate of a pass, times the share of work whose op passed
        "throughput": (statistics.median(rates) * tally.passed_work / tally.work, "work/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, index


def per_layer(args, workloads, tally, env):
    """Each pass untraced, then traced; the per-layer metrics.

    Counts come from the first traced pass, so they repeat exactly for a
    seed; times are per pass, in reference seconds, median over passes.
    """
    from layertrace import GROUPS, Tracer

    tracer = Tracer()
    times, overheads = [], []
    first, first_failed, curvature_points = {}, Counter(), 0.0
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        ops = workloads.make_pass(args.workload, args.seed, index)
        _, plain, _ = run_pass(ops, tally)
        tracer.install()
        tracer.recording = index == 0
        before = tracer.snapshot()
        try:
            scale, traced, failed = run_pass(ops, tally, tracer)
        finally:
            tracer.uninstall()
        after = tracer.snapshot()
        diff = {k: after[k] - before.get(k, 0) for k in after}
        times.append({g: scale * diff[f"{g}.self_s"] for g in GROUPS})
        overheads.append(traced - plain)
        if index == 0:
            first, first_failed = diff, failed
            curvature_points = sum(op.work for op in ops if op.kind == "curvature-scan")
        index += 1

    metrics = {f"{g}.self_s": (statistics.median(t[g] for t in times), "s") for g in GROUPS}
    for key in ("quadrature.integrate.calls", "quadrature.integrate.nodes",
                "manifold.fisher_metric.calls", "manifold.metric_evals",
                "manifold.domain_contains.calls", "manifold.geodesic.steps",
                "models.density_points", "ergodic.ig_correlation.calls", "ergodic.maximizer.calls"):
        metrics[key] = (first.get(key, 0), "count")
    nodes = first.get("quadrature.integrate.nodes", 0)
    metrics["quadrature.fine_node_share"] = (
        1.0 - first.get("quadrature.coarse_nodes", 0) / nodes if nodes else 0.0, "share")
    metrics["manifold.metric_evals_per_curvature"] = (
        first.get("manifold.metric_evals", 0) / curvature_points if curvature_points else 0.0, "count")
    for kind in workloads.OP_KINDS:
        metrics[f"check.{kind}.failed"] = (first_failed[kind], "count")
    # untimed and outside the workload's tally: see workloads.defect_probe_ops
    probe_failed = Counter(op.kind for op in workloads.defect_probe_ops()
                           if execute(op)[1] is not None)
    for kind in workloads.DEFECT_KINDS:
        metrics[f"defect.{kind}.failed"] = (probe_failed[kind], "count")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    env["absent"] = tracer.absent
    write_spans(args, tracer.spans, env)
    return metrics, 2 * index


def write_spans(args, spans, env):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(env) + "\n")
        for request_id, span_id, parent, name, start, end in spans:
            fh.write(json.dumps({"request": request_id, "span": span_id, "parent": parent,
                                 "name": name, "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    # before NumPy loads; setup probes inherit the cap
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    statmanifold = import_program()
    import numpy as np
    import workloads

    if args.setup_probe:
        workloads.make_pass(args.workload, args.seed, 0)
        for op in workloads.warmup_ops(args.workload, args.seed):
            execute(op)
        return 0

    setup_s = measure_setup(args)
    for op in workloads.warmup_ops(args.workload, args.seed):
        execute(op)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": np.__version__,
        "statmanifold": getattr(statmanifold, "__version__", "?"),
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
    }
    tally = Tally()
    if args.trace:
        metrics, passes = per_layer(args, workloads, tally, env)
    else:
        metrics, passes = end_to_end(args, workloads, tally)
        metrics["setup_s"] = (setup_s, "s")
    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    env.update(passes=passes, speed_scale=[min(tally.scales), statistics.median(tally.scales),
                                           max(tally.scales)],
               attempted=dict(tally.attempted), failed=dict(tally.failed),
               failure_reasons=dict(tally.reasons))
    print(json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
