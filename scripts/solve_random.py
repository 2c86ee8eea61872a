#!/usr/bin/env python3
"""Solve a family of random instances and report solution counts, timing,
and agreement between the plain search and the symmetry mode: the same
branch paths in the same order, and the largest coordinate gap.  Exits 1
if any instance disagrees."""

import argparse
import time

import numpy as np

from cgabp.dmdgp import generate_instance
from cgabp.geometry import verify_realization
from cgabp.solver import SolveOptions, solve

GAP_TOL = 1e-8  # largest coordinate gap between the two modes counted as agreement


def timed_solve(inst, use_symmetry):
    t0 = time.perf_counter()
    sols = solve(inst, SolveOptions(mode="all", use_symmetry=use_symmetry))
    return sols, time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 20, 40])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--extra-edges", type=float, default=0.2)
    args = ap.parse_args()

    print(f"{'n':>5} {'edges':>6} {'solutions':>10} {'worst viol':>12} "
          f"{'truth err':>11} {'time [s]':>9} {'sym [s]':>8} {'sym gap':>10}")
    mismatches = 0
    for n in args.sizes:
        inst, truth = generate_instance(n, args.seed + n, args.extra_edges)
        sols, dt = timed_solve(inst, False)
        sym, dt_sym = timed_solve(inst, True)
        mirror = truth * np.array([1.0, 1.0, -1.0])
        worst = max((verify_realization(inst, r)[0] for r, _ in sols), default=float("nan"))
        best = min((min(np.max(np.abs(r - truth)), np.max(np.abs(r - mirror)))
                    for r, _ in sols), default=float("nan"))
        same_paths = [p for _, p in sym] == [p for _, p in sols]
        gap = max((float(np.max(np.abs(a - b))) for (a, _), (b, _) in zip(sym, sols)),
                  default=0.0)
        mismatches += not same_paths or gap > GAP_TOL
        gap_text = f"{gap:>10.1e}" if same_paths else f"{'PATHS':>10}"
        print(f"{n:>5} {len(inst.edges):>6} {len(sols):>10} {worst:>12.3e} "
              f"{best:>11.3e} {dt:>9.3f} {dt_sym:>8.3f} {gap_text}")
    print(f"\nsymmetry mode: {mismatches} of {len(args.sizes)} instances differ "
          f"from plain search (paths, or coordinates beyond {GAP_TOL:g})")


if __name__ == "__main__":
    raise SystemExit(main())
