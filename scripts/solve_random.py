#!/usr/bin/env python3
"""Solve a family of random instances and report solution counts, timing,
and the largest coordinate gap between each returned realization and the
same branch path replayed through the torsion-matrix chain
(``geometry.matrix_place_next`` from the solver's anchor).  Exits 1 if any
instance's gap exceeds the tolerance."""

import argparse
import math
import time

import numpy as np

from cgabp.dmdgp import generate_instance, internal_coordinates
from cgabp.geometry import matrix_place_next, verify_realization
from cgabp.solver import SolveOptions, initialize_first_three, solve

GAP_TOL = 1e-8  # largest coordinate gap to the matrix replay counted as agreement


def matrix_replay(coords, path):
    """Realization of ``path`` by the torsion-matrix chain from the anchor."""
    pts = list(initialize_first_three(coords))
    for k, sign in enumerate(path.signs):
        omega = math.acos(min(1.0, max(-1.0, float(coords.dihedral_cos[k]))))
        pts.append(matrix_place_next(pts[-3], pts[-2], pts[-1], float(coords.bond_angles[k + 1]),
                                     sign * omega, float(coords.bond_lengths[k + 2]))[0])
    return np.array(pts)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 20, 40])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--extra-edges", type=float, default=0.2)
    args = ap.parse_args()

    print(f"{'n':>5} {'edges':>6} {'solutions':>10} {'worst viol':>12} "
          f"{'truth err':>11} {'time [s]':>9} {'oracle gap':>11}")
    mismatches = 0
    for n in args.sizes:
        inst, truth = generate_instance(n, args.seed + n, args.extra_edges)
        t0 = time.perf_counter()
        sols = solve(inst, SolveOptions(mode="all"))
        dt = time.perf_counter() - t0
        mirror = truth * np.array([1.0, 1.0, -1.0])
        worst = max((verify_realization(inst, r)[0] for r, _ in sols), default=float("nan"))
        best = min((min(np.max(np.abs(r - truth)), np.max(np.abs(r - mirror)))
                    for r, _ in sols), default=float("nan"))
        coords = internal_coordinates(inst)
        gap = max((float(np.max(np.abs(r - matrix_replay(coords, p)))) for r, p in sols),
                  default=0.0)
        mismatches += gap > GAP_TOL
        print(f"{n:>5} {len(inst.edges):>6} {len(sols):>10} {worst:>12.3e} "
              f"{best:>11.3e} {dt:>9.3f} {gap:>11.1e}")
    print(f"\nmatrix oracle: {mismatches} of {len(args.sizes)} instances differ "
          f"by more than {GAP_TOL:g}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
