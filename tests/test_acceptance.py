"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
execute.  Every tolerance is asserted exactly as stated; timing limits are
asserted too (generously, on any recent machine they are far from tight).
"""

import itertools
import math
import time

import numpy as np
import pytest

from cgabp import ga
from cgabp.bench import MATRIX_COEFF_COUNT, MOTOR_COEFF_COUNT, bench_compose, bench_placement
from cgabp.conformal import (build_placement_step, compute_next_points,
                             embed_point, extract_point)
from cgabp.dmdgp import generate_instance, internal_coordinates
from cgabp.ga import (DIM, E1, E2, E3, EM, EP, NI, NO, Multivector,
                      geometric_product as gp, scalar, scalar_product as sp)
from cgabp.geometry import (bond_angle, dihedral_angle, matrix_place_next,
                            trilaterate, verify_realization)
from cgabp.solver import SolveOptions, initialize_first_three, solve

from conftest import angle_gap, radii_from_internal, random_placement_case


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_algebra_axioms():
    start = time.perf_counter()
    ok = True
    for e in (E1, E2, E3, EP):
        ok &= (gp(e, e) - scalar(1.0)).max_abs() <= 1e-14
    ok &= (gp(EM, EM) + scalar(1.0)).max_abs() <= 1e-14
    ok &= abs(sp(NI, NI)) <= 1e-14
    ok &= abs(sp(NO, NO)) <= 1e-14
    ok &= abs(sp(NI, NO) + 1.0) <= 1e-14

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        a, b, c = (Multivector(rng.uniform(-1.0, 1.0, DIM)) for _ in range(3))
        scale = max(1.0, a.max_abs()) * max(1.0, b.max_abs()) * max(1.0, c.max_abs())
        assoc = (gp(gp(a, b), c) - gp(a, gp(b, c))).max_abs() / scale
        lam = rng.uniform(-2.0, 2.0)
        bilin = (gp(a, b * lam + c) - (gp(a, b) * lam + gp(a, c))).max_abs() / scale
        worst = max(worst, assoc, bilin)
    ok &= worst <= 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(1, ok, f"metric axioms to 1e-14, assoc/bilinearity worst {worst:.2e} "
                  f"on 1000 triples, {elapsed:.2f}s")


def test_criterion_2_conformal_distance_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        x, y = rng.uniform(-10.0, 10.0, (2, 3))
        d2 = float(np.dot(x - y, x - y))
        got = -2.0 * sp(embed_point(x), embed_point(y))
        worst = max(worst, abs(got - d2) / max(1.0, d2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(2, ok, f"-2 P.Q vs |x-y|^2 worst relative error {worst:.2e} "
                  f"on 1000 pairs, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def placement_trials():
    rng = np.random.default_rng(303)
    trials = []
    start = time.perf_counter()
    for _ in range(1000):
        a, b, c, theta, omega, d = random_placement_case(rng)
        pa, pb, pc = (embed_point(p) for p in (a, b, c))
        direct, mirrored = compute_next_points(pa, pb, pc, theta, omega, d)
        step = build_placement_step(pa, pb, pc, theta, omega, d)
        trials.append(((a, b, c, theta, omega, d),
                       extract_point(direct), extract_point(mirrored), step))
    elapsed = time.perf_counter() - start
    return trials, elapsed


def test_criterion_3_placement_oracle_equivalence(placement_trials):
    trials, build_time = placement_trials
    start = time.perf_counter()
    worst_coord = 0.0
    worst_angle = 0.0
    for (a, b, c, theta, omega, d), x_plus, x_minus, _ in trials:
        m_plus, m_minus = matrix_place_next(a, b, c, theta, omega, d)
        worst_coord = max(worst_coord,
                          float(np.max(np.abs(x_plus - m_plus))),
                          float(np.max(np.abs(x_minus - m_minus))))
        radii = radii_from_internal(np.linalg.norm(a - b), np.linalg.norm(a - c),
                                    np.linalg.norm(b - c), theta, omega, d)
        tri = trilaterate(a, b, c, *radii)
        if tri.kind != "two-points":
            worst_coord = math.inf
            continue
        for x in (x_plus, x_minus):
            worst_coord = max(worst_coord,
                              min(float(np.max(np.abs(x - p))) for p in tri.points))
        worst_angle = max(worst_angle,
                          abs(bond_angle(b, c, x_plus) - theta),
                          angle_gap(dihedral_angle(a, b, c, x_plus), omega),
                          angle_gap(dihedral_angle(a, b, c, x_minus), -omega),
                          abs(np.linalg.norm(x_plus - c) - d))
    elapsed = build_time + (time.perf_counter() - start)
    ok = worst_coord <= 1e-8 and worst_angle <= 1e-9 and elapsed < 5.0
    report(3, ok, f"1000 random placements vs trilateration + matrix chain: "
                  f"coord {worst_coord:.2e}, angles {worst_angle:.2e}, {elapsed:.2f}s")


def test_criterion_4_motor_sparsity(placement_trials):
    trials, _ = placement_trials
    worst = max(ga.motor_coeffs(step.combined_versor)[1] for *_, step in trials)
    ok = worst <= 1e-12
    report(4, ok, f"combined versor outside 8-blade motor support: worst {worst:.2e}")


def test_criterion_5_discretization_count():
    start = time.perf_counter()
    inst10, _ = generate_instance(10, 7, 0.0)
    sols10 = solve(inst10, SolveOptions(mode="all"))
    worst = max(verify_realization(inst10, r)[0] for r, _ in sols10) if sols10 else math.inf
    inst4, _ = generate_instance(4, 1, 0.0)
    sols4 = solve(inst4, SolveOptions(mode="all"))
    elapsed = time.perf_counter() - start
    ok = len(sols10) == 128 and worst <= 1e-6 and len(sols4) == 2 and elapsed < 10.0
    report(5, ok, f"clique-only counts: n=10 -> {len(sols10)} (expect 128, worst "
                  f"violation {worst:.2e}), n=4 -> {len(sols4)} (expect 2), {elapsed:.2f}s")


def test_criterion_6_full_information_rigidity():
    start = time.perf_counter()
    inst, truth = generate_instance(8, 3, 1.0)
    sols = solve(inst, SolveOptions(mode="all"))
    mirror = truth * np.array([1.0, 1.0, -1.0])
    errs = [min(float(np.max(np.abs(r - truth))), float(np.max(np.abs(r - mirror))))
            for r, _ in sols]
    elapsed = time.perf_counter() - start
    ok = len(sols) == 2 and all(e <= 1e-6 for e in errs) and elapsed < 10.0
    report(6, ok, f"complete graph n=8 -> {len(sols)} solutions (expect 2), "
                  f"truth/mirror errors {[f'{e:.1e}' for e in errs]}, {elapsed:.2f}s")


def test_criterion_7_symmetric_bp_equivalence():
    # brute force: every sign vector placed by the torsion-matrix chain from
    # the anchor, kept when it meets every edge within eps.  BP walks only
    # the + child at symmetry vertices and mirrors the rest; it must return
    # the same paths, in the same (+ before -) order, at the same points.
    start = time.perf_counter()
    eps = 1e-4
    ok = True
    detail = []
    for n in range(5, 11):
        for f in (0.0, 0.15, 0.3):
            inst, _ = generate_instance(n, 50 + n, f)
            coords = internal_coordinates(inst)
            omega = np.arccos(coords.dihedral_cos)
            brute = []
            for signs in itertools.product((1, -1), repeat=n - 3):
                pts = list(initialize_first_three(coords))
                for k, sign in enumerate(signs):
                    pts.append(matrix_place_next(pts[-3], pts[-2], pts[-1],
                                                 coords.bond_angles[k + 1], sign * omega[k],
                                                 coords.bond_lengths[k + 2])[0])
                if verify_realization(inst, np.array(pts))[0] <= eps:
                    brute.append((signs, np.array(pts)))
            full = solve(inst, SolveOptions(eps=eps, mode="all"))
            same = [s for s, _ in brute] == [p.signs for _, p in full]
            worst = max(float(np.max(np.abs(r - q))) for (_, r), (q, _) in zip(brute, full)) \
                if same else math.inf
            ok &= same and worst <= 1e-8
            detail.append(f"n={n} f={f}: {len(full)}/{len(brute)} worst {worst:.1e}")
    elapsed = time.perf_counter() - start
    report(7, ok, "BP vs brute force over all sign vectors: " + "; ".join(detail)
                  + f", {elapsed:.2f}s")


def test_criterion_8_ground_truth_recovery():
    start = time.perf_counter()
    ok = True
    detail = []
    for n, seed in ((10, 1), (20, 2), (50, 3)):
        inst, truth = generate_instance(n, seed, 0.2)
        sols = solve(inst, SolveOptions(mode="all"))
        mirror = truth * np.array([1.0, 1.0, -1.0])
        best = min((min(float(np.max(np.abs(r - truth))), float(np.max(np.abs(r - mirror))))
                    for r, _ in sols), default=math.inf)
        ok &= best <= 1e-6
        detail.append(f"n={n}: {len(sols)} sols, best {best:.1e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(8, ok, "; ".join(detail) + f", {elapsed:.2f}s")


def test_criterion_9_benchmark_integrity():
    # each bench raises AssertionError on a failed cross-check, so returning
    # a report means its cross-check passed
    compose = bench_compose(2000, seed=5)
    placement = bench_placement(300, seed=5)
    ok = MOTOR_COEFF_COUNT == 8 and MATRIX_COEFF_COUNT == 12
    report(9, ok, "cross-checks pass; storage 8 (motor) vs 12 (matrix); "
                  f"compose {compose.time_per_op['versor']*1e6:.1f}/"
                  f"{compose.time_per_op['matrix']*1e6:.1f} us per op (versor/matrix), "
                  f"placement {placement.time_per_op['versor']*1e6:.0f}/"
                  f"{placement.time_per_op['matrix']*1e6:.0f} us")
