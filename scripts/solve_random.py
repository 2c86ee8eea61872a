#!/usr/bin/env python3
"""Solve a family of random instances and report solution counts, timing,
and the largest coordinate gap between each returned realization and the
same branch path replayed through the torsion-matrix chain
(``geometry.matrix_place_next`` from the solver's anchor).  It also
checks mirror closure: vertex 4 is always a symmetry vertex, so the image
of every realization under z -> -z (the anchor plane) must lie within eps
of a returned realization.  Every instance must also come back unchanged,
with the same validation report, from a trip through ``format_instance``
and ``parse_instance``.  The two constructors must agree: ingesting the
ground truth at an infinite cutoff must give the instance the generator
makes from the same seed with every pair as an edge (the truth depends
only on the torsions, which are drawn first).  Exits 1 if any instance's
gap exceeds the tolerance, any mirror image is missing, any round trip
differs or the constructors disagree.

With ``--digest`` it only solves and prints one SHA-256 over the branch
path, the coordinate bytes and the ``format_points`` text of every
solution, in order, so that two checkouts can be compared for identical
output in one line each, e.g.
``PYTHONPATH=src python scripts/solve_random.py --digest --sizes 200
--seed -200 -199 --cutoff 5 --mode first``.  ``--cutoff`` solves the
ground truth ingested at that radius instead of the generated instance."""

import argparse
import hashlib
import math
import time

import numpy as np

from cgabp.dmdgp import (format_instance, format_points, generate_instance, ingest_coordinates,
                         internal_coordinates, parse_instance, validate_instance)
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


def instances(args):
    """(n, seed, instance, ground truth) for every edge fraction, seed and size:
    ``generate_instance(n, seed + n, extra)``, or its truth ingested at
    ``args.cutoff``."""
    for extra in args.extra_edges:
        for seed in args.seed:
            for n in args.sizes:
                inst, truth = generate_instance(n, seed + n, extra)
                if args.cutoff is not None:
                    inst = ingest_coordinates(format_points(truth), cutoff=args.cutoff)
                yield n, seed, inst, truth


def digest(args, opts):
    """SHA-256 over the path, coordinate bytes and text of every solution, in order."""
    sha = hashlib.sha256()
    for _, _, inst, _ in instances(args):
        for r, path in solve(inst, opts):
            sha.update(f"{path}:".encode())
            sha.update(r.tobytes())
            sha.update(format_points(r).encode())
        sha.update(b";")
    return sha.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 20, 40])
    ap.add_argument("--seed", type=int, nargs="+", default=[0])
    ap.add_argument("--extra-edges", type=float, nargs="+", default=[0.2])
    ap.add_argument("--cutoff", type=float, default=None)
    ap.add_argument("--mode", choices=("all", "first"), default="all")
    ap.add_argument("--digest", action="store_true")
    args = ap.parse_args(argv)
    opts = SolveOptions(mode=args.mode)
    if args.digest:
        print(digest(args, opts))
        return 0

    print(f"{'n':>5} {'edges':>6} {'solutions':>10} {'worst viol':>12} "
          f"{'truth err':>11} {'time [s]':>9} {'oracle gap':>11} {'mirror':>7} {'text':>5} "
          f"{'ingest':>6}")
    mismatches = unmirrored = garbled = disagree = count = 0
    for n, seed, inst, truth in instances(args):
        count += 1
        again = parse_instance(format_instance(inst))
        same = again == inst and validate_instance(again) == validate_instance(inst)
        agree = (ingest_coordinates(format_points(truth), cutoff=math.inf)
                 == generate_instance(n, seed + n, 1.0)[0])
        t0 = time.perf_counter()
        sols = solve(inst, opts)
        dt = time.perf_counter() - t0
        mirror = truth * np.array([1.0, 1.0, -1.0])
        worst = max((verify_realization(inst, r)[0] for r, _ in sols), default=float("nan"))
        best = min((min(np.max(np.abs(r - truth)), np.max(np.abs(r - mirror)))
                    for r, _ in sols), default=float("nan"))
        coords = internal_coordinates(inst)
        gap = max((float(np.max(np.abs(r - matrix_replay(coords, p)))) for r, p in sols),
                  default=0.0)
        # one solution in "first" mode: its mirror image is not returned
        closed = opts.mode == "first" or all(
            min(np.max(np.abs(r * np.array([1.0, 1.0, -1.0]) - q)) for q, _ in sols) <= opts.eps
            for r, _ in sols)
        mismatches += gap > GAP_TOL
        unmirrored += not closed
        garbled += not same
        disagree += not agree
        print(f"{n:>5} {len(inst.edges):>6} {len(sols):>10} {worst:>12.3e} "
              f"{best:>11.3e} {dt:>9.3f} {gap:>11.1e} {'ok' if closed else 'MISS':>7} "
              f"{'ok' if same else 'DIFF':>5} {'ok' if agree else 'DIFF':>6}")
    print(f"\nmatrix oracle: {mismatches} of {count} instances differ "
          f"by more than {GAP_TOL:g}")
    print(f"mirror closure: {unmirrored} of {count} instances miss a mirror image")
    print(f"text round trip: {garbled} of {count} instances differ")
    print(f"ingest vs generate: {disagree} of {count} instances differ")
    return 1 if mismatches or unmirrored or garbled or disagree else 0


if __name__ == "__main__":
    raise SystemExit(main())
