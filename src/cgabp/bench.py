"""Micro-benchmarks comparing rigid-motion composition and chain placement
between the 8-coefficient motor representation and 4x4 homogeneous
matrices, at dimension 3 only.

Timings are reported, never asserted: the correctness cross-checks inside
each benchmark must pass for a report to be emitted at all, but which
representation is faster depends on the hardware and array backend.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .conformal import compute_next_points, embed_point, extract_point
from .ga import (E1, E2, E3, NI, bivector_exp, euclidean_vector, geometric_product as gp,
                 motor_coeffs, motor_from_coeffs, outer_product as op, reverse, scalar)
from .geometry import matrix_place_next
from .solver import compose_motor_floats

MOTOR_COEFF_COUNT = 8
MATRIX_COEFF_COUNT = 12  # 3x4 affine part; the bottom row is constant


@dataclass(frozen=True)
class BenchReport:
    op_name: str
    iterations: int
    total_time: dict[str, float]     # seconds, keyed "versor" / "matrix"
    time_per_op: dict[str, float]
    storage_coefficients_versor: int
    storage_coefficients_matrix: int
    cross_check_passed: bool

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if any(t < 0 for t in self.total_time.values()):
            raise ValueError("times must be nonnegative")

    def as_text(self) -> str:
        rows = [
            f"{self.op_name}: {self.iterations} iterations",
            f"  {'representation':<16}{'total [s]':>12}{'per op [us]':>14}{'storage':>9}",
        ]
        for key, storage in (("versor", self.storage_coefficients_versor),
                             ("matrix", self.storage_coefficients_matrix)):
            rows.append(
                f"  {key:<16}{self.total_time[key]:>12.6f}"
                f"{self.time_per_op[key] * 1e6:>14.3f}{storage:>9d}"
            )
        rows.append(f"  cross-check: {'ok' if self.cross_check_passed else 'FAILED'}")
        return "\n".join(rows)

    def as_kv_lines(self) -> str:
        kv = [
            ("op", self.op_name),
            ("iterations", self.iterations),
            ("total_time.versor", f"{self.total_time['versor']:.9f}"),
            ("total_time.matrix", f"{self.total_time['matrix']:.9f}"),
            ("time_per_op.versor", f"{self.time_per_op['versor']:.12f}"),
            ("time_per_op.matrix", f"{self.time_per_op['matrix']:.12f}"),
            ("storage_coefficients_versor", self.storage_coefficients_versor),
            ("storage_coefficients_matrix", self.storage_coefficients_matrix),
            ("cross_check_passed", int(self.cross_check_passed)),
        ]
        return "\n".join(f"{self.op_name}.{k}={v}" for k, v in kv)


def _random_motor_and_matrix(rng) -> tuple[np.ndarray, np.ndarray]:
    """Random rigid motion as (8 motor coefficients, 4x4 homogeneous matrix)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    t = rng.uniform(-2.0, 2.0, size=3)
    # rotation generator: unit Euclidean bivector dual to the axis
    bivec = (op(E2, E3) * axis[0] - op(E1, E3) * axis[1] + op(E1, E2) * axis[2])
    rotor = bivector_exp(bivec * (0.5 * angle))
    translator = scalar(1.0) - gp(euclidean_vector(t), NI) * 0.5
    motor_dense = gp(translator, rotor)
    coords, residual = motor_coeffs(motor_dense)
    if residual > 1e-10:
        raise AssertionError("random motor left its 8-coefficient support")
    mat = np.eye(4)
    for col, e in enumerate((E1, E2, E3)):
        mat[:3, col] = extract_point(
            gp(gp(motor_dense, embed_point(np.eye(3)[col])), reverse(motor_dense))
        ) - t
    mat[:3, 3] = t
    return coords, mat


def _apply_motor(coords: np.ndarray, point: np.ndarray) -> np.ndarray:
    m = motor_from_coeffs(coords)
    return extract_point(gp(gp(m, embed_point(point)), reverse(m)))


def bench_compose(count: int, seed: int = 0) -> BenchReport:
    """Time motor-vs-matrix composition of random rigid motions: the motors
    as lists of 8 floats composed by ``solver.compose_motor_floats``, the
    product the search runs, against 4x4 matrix products.

    Both composites must map 10 random probe points identically (1e-8)
    for the report to be emitted.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    pairs = [( _random_motor_and_matrix(rng), _random_motor_and_matrix(rng))
             for _ in range(count)]
    motor_pairs = [(a[0].tolist(), b[0].tolist()) for a, b in pairs]
    matrix_pairs = [(a[1], b[1]) for a, b in pairs]

    t0 = time.perf_counter()
    motor_out = [compose_motor_floats(a, b) for a, b in motor_pairs]
    t_motor = time.perf_counter() - t0

    t0 = time.perf_counter()
    matrix_out = [a @ b for a, b in matrix_pairs]
    t_matrix = time.perf_counter() - t0

    probes = rng.uniform(-3.0, 3.0, size=(10, 3))
    ok = True
    for k in range(min(count, 8)):
        for p in probes:
            via_motor = _apply_motor(motor_out[k], p)
            via_matrix = (matrix_out[k] @ np.append(p, 1.0))[:3]
            ok = ok and bool(np.max(np.abs(via_motor - via_matrix)) <= 1e-8)
    if not ok:
        raise AssertionError("composition cross-check failed; refusing to report")
    return BenchReport(
        op_name="compose",
        iterations=count,
        total_time={"versor": t_motor, "matrix": t_matrix},
        time_per_op={"versor": t_motor / count, "matrix": t_matrix / count},
        storage_coefficients_versor=MOTOR_COEFF_COUNT,
        storage_coefficients_matrix=MATRIX_COEFF_COUNT,
        cross_check_passed=ok,
    )


def _random_placement_inputs(rng):
    while True:
        a, b, c = rng.uniform(-3.0, 3.0, size=(3, 3))
        if np.linalg.norm(np.cross(b - a, c - b)) > 0.3:
            break
    theta = rng.uniform(0.3, math.pi - 0.3)
    omega = rng.uniform(-math.pi, math.pi)
    d = rng.uniform(0.5, 2.0)
    return a, b, c, theta, omega, d


def bench_placement(count: int, seed: int = 0) -> BenchReport:
    """Time chain placement via versors vs the torsion-matrix chain on
    identical inputs; both must produce the same point pair (1e-8)."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    inputs = [_random_placement_inputs(rng) for _ in range(count)]

    t0 = time.perf_counter()
    versor_out = []
    for a, b, c, theta, omega, d in inputs:
        pts = compute_next_points(embed_point(a), embed_point(b), embed_point(c),
                                  theta, omega, d)
        versor_out.append((extract_point(pts[0]), extract_point(pts[1])))
    t_versor = time.perf_counter() - t0

    t0 = time.perf_counter()
    matrix_out = [matrix_place_next(a, b, c, theta, omega, d)
                  for a, b, c, theta, omega, d in inputs]
    t_matrix = time.perf_counter() - t0

    ok = all(
        np.max(np.abs(v[0] - m[0])) <= 1e-8 and np.max(np.abs(v[1] - m[1])) <= 1e-8
        for v, m in zip(versor_out, matrix_out)
    )
    if not ok:
        raise AssertionError("placement cross-check failed; refusing to report")
    return BenchReport(
        op_name="placement",
        iterations=count,
        total_time={"versor": t_versor, "matrix": t_matrix},
        time_per_op={"versor": t_versor / count, "matrix": t_matrix / count},
        storage_coefficients_versor=MOTOR_COEFF_COUNT,
        storage_coefficients_matrix=MATRIX_COEFF_COUNT,
        cross_check_passed=ok,
    )
