#!/usr/bin/env python3
"""Count the cyclic garbage collector's passes in a perfbench closed loop.

    python3 scripts/gc_probe.py --workload backbone --seed 5 --seconds 15

Builds the pool of a ``perfbench/workloads.py`` workload from the seed and
sends its ``request`` round-robin, one at a time, for the given seconds,
each output checked by the workload's gate outside the timed region, as
``perfbench/run.py --trace 0`` does (without its import timings).  A
``gc.callbacks`` hook counts every collector pass by generation and notes
the passes that ran inside a timed request.  The report gives the passes
per generation with their median duration, and how many of the 11 slowest
requests held a pass: the 11th slowest is the ``request_s_tail`` of
``perfbench/run.py``.  The program is imported from ``src/`` and the
workloads from ``perfbench/``, next to this directory; neither is changed.
The last line is the same report as one JSON object.  Exits 1 if a request
raised or failed its gate.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TAIL_RANK = 11   # perfbench/run.py reports the 11th-largest latency


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS, request

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cases, setup_failures = workload.build(args.seed)
    if not cases:
        sys.exit(f"error: every set-up request failed: {dict(setup_failures)}")
    request(cases[0], workload.mode, workload.use_symmetry)   # warm-up, as run.py sends

    passes = []     # (generation, seconds) of every pass in the loop
    began = 0.0

    def hook(phase, info):
        nonlocal began
        if phase == "start":
            began = perf_counter()
        else:
            passes.append((info["generation"], perf_counter() - began))

    requests = []   # (seconds, generations of the passes it held)
    failed = sum(setup_failures.values())
    gc.callbacks.append(hook)
    try:
        start = perf_counter()
        i = 0
        while perf_counter() - start < args.seconds:
            case = cases[i % len(cases)]
            i += 1
            before = len(passes)
            t0 = perf_counter()
            try:
                sols, texts = request(case, workload.mode, workload.use_symmetry)
            except Exception:
                failed += 1
                continue
            dt = perf_counter() - t0
            held = [gen for gen, _ in passes[before:]]
            if workload.gate(case, sols, texts):
                failed += 1
            else:
                requests.append((dt, held))
    finally:
        gc.callbacks.remove(hook)

    slowest = sorted(requests, key=lambda r: r[0], reverse=True)[:TAIL_RANK]
    durations = {str(gen): [s for g, s in passes if g == gen] for gen in range(3)}
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "requests": len(requests), "failed": failed,
        "passes": {gen: len(ds) for gen, ds in durations.items()},
        "pass_ms_median": {gen: round(1e3 * statistics.median(ds), 3)
                           for gen, ds in durations.items() if ds},
        "passes_in_requests": {str(gen): sum(held.count(gen) for _, held in requests)
                               for gen in range(3)},
        "slowest": len(slowest),
        "slowest_holding_a_pass": sum(1 for _, held in slowest if held),
        "slowest_holding_a_full_pass": sum(1 for _, held in slowest if 2 in held),
        "tail_s": slowest[-1][0] if slowest else None,
    }
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s closed loop: "
          f"{len(requests)} requests passed their gate, {failed} failed")
    for gen in durations:
        ms = report["pass_ms_median"].get(gen)
        print(f"  generation {gen}: {report['passes'][gen]} passes"
              + (f", median {ms:g} ms" if ms is not None else "")
              + f", {report['passes_in_requests'][gen]} inside a timed request")
    if slowest:
        print(f"  of the {len(slowest)} slowest requests, {report['slowest_holding_a_pass']} held "
              f"a pass and {report['slowest_holding_a_full_pass']} a full (generation 2) one; "
              f"the {len(slowest)}th slowest took {1e3 * report['tail_s']:.3f} ms")
    print(json.dumps(report))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
