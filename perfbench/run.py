#!/usr/bin/env python3
"""Closed-loop benchmark of the cgabp solver, one workload per invocation.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 30 --trace 0

One client in one process, no threads: the next request is sent when the
previous one has completed.  A request parses an instance text, solves it
and formats every realization in memory; its output is checked by the
workload's correctness gate outside the timed region.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced requests and reports per-layer metrics from the traced ones, plus
the motor-vs-matrix kernel timings of ``cgabp.bench``.  Both modes run the
``cgabp.bench`` kernels, and with them their cross-checks, before the loop.

The program is imported from ``src/`` next to this directory.  A human
readable report goes to standard output, followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
only when every request, set-up requests included, passed its gate; a
failing ``cgabp.bench`` cross-check refuses the report altogether.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "traces"

SETUP_SPAWNS = 9          # fresh interpreters timed per run for setup_s
TAIL_BEYOND = 10          # samples required beyond the reported tail percentile
KERNEL_REPEATS = 5        # cgabp.bench calls per kernel; the median is reported
PLACEMENT_COUNT = 100
COMPOSE_COUNT = 300


def _import_program():
    """Put ``src/`` first on the path and import the solver from there only."""
    if not (SRC / "cgabp" / "__init__.py").is_file():
        sys.exit(f"error: cgabp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cgabp
    if Path(cgabp.__file__).resolve().parent != SRC / "cgabp":
        sys.exit(f"error: imported cgabp from {cgabp.__file__}, expected {SRC}")


def time_import() -> float:
    """Wall time of a fresh interpreter running ``import cgabp.cli``.

    No timeout: with one, ``Popen.wait`` polls in sleeps of up to 50 ms,
    which would round every sample up to that grid.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import cgabp.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile); with too few samples, the maximum and 100.
    """
    s = sorted(latencies)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


def run_loop(workload, cases, seconds, tracer):
    """Send requests until ``seconds`` have passed; with a tracer, every
    second request runs traced on the same instance as the one before.

    Untraced runs also time SETUP_SPAWNS fresh imports, spread evenly over
    the run between requests, so that setup_s samples the same stretch of
    machine load as the requests do.
    """
    from workloads import max_edge_violation, request

    def send(case):
        return request(case, workload.mode, workload.use_symmetry)

    try:
        send(cases[0])  # warm-up; its failures are counted on the measured requests
    except Exception:
        pass
    stats = {"latency": [], "traced": [], "untraced": [], "solutions": 0, "setup": [],
             "wall": 0.0, "attempted": 0, "failures": Counter(), "max_violation": 0.0}
    if tracer:
        spawn_at = []
    else:
        time_import()  # untimed: the first import may write the bytecode caches
        spawn_at = [seconds * (k + 0.5) / SETUP_SPAWNS for k in range(SETUP_SPAWNS)]
    min_requests = 2 if tracer else 1
    start = perf_counter()
    i = 0
    while i < min_requests or perf_counter() - start < seconds:
        if spawn_at and perf_counter() - start >= spawn_at[0]:
            spawn_at.pop(0)
            stats["setup"].append(time_import())
        traced = tracer is not None and i % 2 == 1
        case = cases[(i // 2 if tracer else i) % len(cases)]
        stats["attempted"] += 1
        t0 = perf_counter()
        try:
            if traced:
                with tracer.installed(rid=i):
                    sols, texts = send(case)
            else:
                sols, texts = send(case)
        except Exception as exc:
            name = type(exc).__name__
            if not stats["failures"][name]:
                traceback.print_exc(limit=-3, file=sys.stderr)
            stats["failures"][name] += 1
            i += 1
            continue
        dt = perf_counter() - t0
        reason = workload.gate(case, sols, texts)
        if reason:
            stats["failures"][reason] += 1
        else:
            stats["latency"].append(dt)
            stats["solutions"] += len(sols)
            if tracer:
                stats["traced" if traced else "untraced"].append(dt)
            if traced:
                stats["max_violation"] = max(
                    [stats["max_violation"]] + [max_edge_violation(case, r) for r, _ in sols])
        i += 1
    stats["wall"] = perf_counter() - start
    stats["setup"] += [time_import() for _ in spawn_at]
    return stats


def end_to_end_metrics(stats):
    metrics = {}
    lat = stats["latency"]
    if lat:
        metrics["request_s_tail"] = (tail(lat)[0], "s")
    metrics["setup_s"] = (statistics.median(stats["setup"]), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def kernel_metrics(seed):
    """Per-op kernel timings from cgabp.bench, whose cross-checks raise
    AssertionError when the versor and matrix results disagree."""
    from cgabp.bench import bench_compose, bench_placement

    metrics = {}
    for op_name, bench, count in (("placement", bench_placement, PLACEMENT_COUNT),
                                  ("compose", bench_compose, COMPOSE_COUNT)):
        reports = [bench(count, seed + k) for k in range(KERNEL_REPEATS)]
        for rep in ("versor", "matrix"):
            metrics[f"bench.{op_name}_us.{rep}"] = (
                statistics.median(r.time_per_op[rep] for r in reports) * 1e6, "us")
    return metrics


def per_layer_metrics(stats, tracer, kernels):
    from tracing import layer_metrics

    metrics = layer_metrics(tracer.per_request())
    metrics["geometry.max_violation_A"] = (stats["max_violation"], "A")
    metrics.update(kernels)
    if stats["traced"] and stats["untraced"]:
        metrics["trace.overhead_frac"] = (
            statistics.median(stats["traced"]) / statistics.median(stats["untraced"]), "ratio")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cases, setup_failures = workload.build(args.seed)
    if not cases:
        sys.exit(f"error: every set-up request failed: {dict(setup_failures)}")
    try:
        kernels = kernel_metrics(args.seed)
    except AssertionError as exc:
        sys.exit(f"error: cgabp.bench cross-check failed, no report: {exc}")
    tracer = Tracer() if args.trace else None
    stats = run_loop(workload, cases, args.seconds, tracer)
    stats["attempted"] += sum(setup_failures.values())
    stats["failures"].update(setup_failures)

    if tracer:
        metrics = per_layer_metrics(stats, tracer, kernels)
        path = TRACE_DIR / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write(path)
    else:
        metrics = end_to_end_metrics(stats)

    attempted = stats["attempted"]
    failed = sum(stats["failures"].values())
    lat = stats["latency"]
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {args.seconds:g} s closed loop, 1 client, "
          f"{len(cases)} instances, trace={args.trace}")
    print(f"requests attempted {attempted}, failed {failed}, fail_frac {failed / attempted:.4f}")
    for reason, count in sorted(stats["failures"].items()):
        print(f"  failure {reason}: {count}")
    if lat:
        _, pct = tail(lat)
        print(f"request_s_p50 {statistics.median(lat):.6g} s, "
              f"solutions_per_s {stats['solutions'] / stats['wall']:.6g} 1/s (printed, not bounded)")
        print(f"request_s_tail is p{pct:.1f} of {len(lat)} successful requests; "
              f"latency min {min(lat):.4g} s, max {max(lat):.4g} s")
    if tracer:
        print(f"spans written to {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
