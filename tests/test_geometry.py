"""Tests for the classical coordinate-geometry reference implementations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgabp.dmdgp import Instance, generate_instance
from cgabp.errors import DegenerateGeometryError
from cgabp.geometry import (bond_angle, dihedral_angle, matrix_place_next, torsion_matrix,
                            trilaterate, verify_realization)

from conftest import angle_gap, radii_from_internal, random_placement_case


class TestTrilaterate:
    def test_frozen_two_point_case(self):
        # algebraic elimination by hand: x = 1, y = 1/2, z = +-sqrt(3)/2
        res = trilaterate((0, 0, 0), (2, 0, 0), (1, 1, 0), math.sqrt(2), math.sqrt(2), 1.0)
        assert res.kind == "two-points"
        expected = {(1.0, 0.5, math.sqrt(3) / 2), (1.0, 0.5, -math.sqrt(3) / 2)}
        got = {tuple(np.round(p, 12)) for p in res.points}
        assert got == {tuple(np.round(e, 12)) for e in expected}

    def test_tangent_case(self):
        # radii a hair inside exact tangency so the discriminant lands in
        # [-1e-9, 0] regardless of rounding direction
        target = np.array([1.0, 0.5, 0.0])
        centers = [np.array(c, dtype=float) for c in ((0, 0, 0), (2, 0, 0), (1, 1, 0))]
        radii = [np.linalg.norm(target - c) * (1.0 - 1e-12) for c in centers]
        res = trilaterate(*centers, *radii)
        assert res.kind == "tangent-point" and len(res.points) == 1
        assert np.allclose(res.points[0], target, atol=1e-6)

    def test_empty_case(self):
        res = trilaterate((0, 0, 0), (2, 0, 0), (1, 1, 0), 0.1, 0.1, 0.1)
        assert res.kind == "empty"
        assert res.points == ()

    def test_zero_radius_consistent(self):
        p1 = np.array([0.0, 0.0, 0.0])
        res = trilaterate(p1, (2, 0, 0), (1, 1, 0), 0.0, 2.0, math.sqrt(2))
        assert res.kind == "tangent-point"
        assert np.allclose(res.points[0], p1, atol=1e-9)

    def test_zero_radius_inconsistent(self):
        res = trilaterate((0, 0, 0), (2, 0, 0), (1, 1, 0), 0.0, 1.0, 1.0)
        assert res.kind == "empty"

    def test_collinear_centers_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            trilaterate((0, 0, 0), (1, 0, 0), (2, 0, 0), 1.0, 1.0, 1.0)

    def test_residuals_and_mirror_on_random_inputs(self, rng):
        for _ in range(200):
            centers = rng.uniform(-3, 3, (3, 3))
            if np.linalg.norm(np.cross(centers[1] - centers[0], centers[2] - centers[0])) < 0.3:
                continue
            target = rng.uniform(-3, 3, 3)
            radii = [np.linalg.norm(target - c) for c in centers]
            res = trilaterate(*centers, *radii)
            assert res.kind in ("two-points", "tangent-point")
            for p in res.points:
                for c, r in zip(centers, radii):
                    assert abs(np.linalg.norm(p - c) - r) <= 1e-9 * max(1.0, r)
            if res.kind == "two-points":
                # the two points are swapped by reflection through the centers' plane
                n = np.cross(centers[1] - centers[0], centers[2] - centers[0])
                n = n / np.linalg.norm(n)
                a, b = res.points
                mirrored = a - 2.0 * np.dot(a - centers[0], n) * n
                assert np.allclose(mirrored, b, atol=1e-10)


class TestMatrixPlaceNext:
    def test_requested_angles_are_realized(self, rng):
        for _ in range(300):
            a, b, c, theta, omega, d = random_placement_case(rng)
            x_plus, x_minus = matrix_place_next(a, b, c, theta, omega, d)
            assert abs(np.linalg.norm(x_plus - c) - d) <= 1e-12
            assert abs(bond_angle(b, c, x_plus) - theta) <= 1e-9
            assert angle_gap(dihedral_angle(a, b, c, x_plus), omega) <= 1e-9
            assert angle_gap(dihedral_angle(a, b, c, x_minus), -omega) <= 1e-9

    def test_zero_torsion_stays_in_plane(self, rng):
        a, b, c, theta, _, d = random_placement_case(rng)
        x_plus, x_minus = matrix_place_next(a, b, c, theta, 0.0, d)
        n = np.cross(b - a, c - b)
        n = n / np.linalg.norm(n)
        assert abs(np.dot(x_plus - c, n)) <= 1e-12
        assert np.allclose(x_plus, x_minus, atol=1e-12)

    def test_agrees_with_trilateration(self, rng):
        for _ in range(300):
            a, b, c, theta, omega, d = random_placement_case(rng)
            placed = matrix_place_next(a, b, c, theta, omega, d)
            radii = radii_from_internal(np.linalg.norm(a - b), np.linalg.norm(a - c),
                                        np.linalg.norm(b - c), theta, omega, d)
            res = trilaterate(a, b, c, *radii)
            assert res.kind == "two-points"
            for x in placed:
                assert min(np.max(np.abs(x - p)) for p in res.points) <= 1e-9

    def test_degenerate_frame_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            matrix_place_next((0, 0, 0), (1, 0, 0), (2, 0, 0), 1.0, 0.5, 1.0)

    def test_frame_matrix_is_homogeneous(self):
        mat = torsion_matrix((0, 0, 0), (1, 0, 0), (1, 1, 0))
        assert mat.shape == (4, 4)
        assert np.allclose(mat[3], [0, 0, 0, 1])
        assert np.allclose(mat[:3, :3] @ mat[:3, :3].T, np.eye(3), atol=1e-12)


def reference_verify(inst, r):
    """verify_realization as the loop over ``inst.edges`` it replaced."""
    worst = 0.0
    worst_edge = None
    for u, v, d in inst.edges:
        viol = abs(np.linalg.norm(r[u - 1] - r[v - 1]) - d)
        if worst_edge is None or viol > worst:
            worst = viol
            worst_edge = (u, v)
    return worst, worst_edge


class TestVerifyRealization:
    def test_ground_truth_is_exact(self):
        inst, truth = generate_instance(12, 5, 0.3)
        max_viol, worst = verify_realization(inst, truth)
        assert max_viol <= 1e-12
        assert worst is not None

    def test_perturbation_along_edge_direction(self):
        inst, truth = generate_instance(6, 2, 0.0)
        delta = 1e-3
        moved = truth.copy()
        direction = (moved[5] - moved[4])
        direction /= np.linalg.norm(direction)
        moved[5] += delta * direction
        max_viol, worst = verify_realization(inst, moved)
        assert abs(max_viol - delta) <= 1e-9
        assert worst == (5, 6)

    def test_empty_edge_list(self):
        inst = Instance(4, ())
        max_viol, worst = verify_realization(inst, np.zeros((4, 3)))
        assert max_viol == 0.0
        assert worst is None

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 40), seed=st.integers(0, 2**16), extra=st.floats(0.0, 1.0),
           kind=st.sampled_from(["noisy", "random", "exact"]), scale=st.floats(1e-6, 1e3))
    def test_matches_the_edge_loop_bit_for_bit(self, n, seed, extra, kind, scale):
        # the "exact" truth misses every edge by 0.0: the first edge must win the tie
        inst, truth = generate_instance(n, seed, extra)
        rng = np.random.default_rng(seed)
        r = {"noisy": lambda: truth + rng.normal(scale=scale, size=truth.shape),
             "random": lambda: rng.uniform(-scale, scale, size=truth.shape),
             "exact": lambda: truth}[kind]()
        got, expected = verify_realization(inst, r), reference_verify(inst, r)
        assert np.float64(got[0]).tobytes() == np.float64(expected[0]).tobytes()
        assert got[1] == expected[1] and type(got[0]) is float

    @pytest.mark.parametrize("vertex", [5, 6, 9, 12])
    def test_nan_vertex_is_the_worst_violation(self, vertex):
        inst, truth = generate_instance(12, 5, 0.3)
        truth[vertex - 1, 1] = math.nan
        max_viol, worst = verify_realization(inst, truth)
        assert math.isnan(max_viol) and "edges" not in vars(inst)
        assert worst == next((u, v) for u, v, _ in inst.edges if vertex in (u, v))

    def test_size_mismatch_rejected(self):
        inst, truth = generate_instance(6, 2, 0.0)
        with pytest.raises(ValueError):
            verify_realization(inst, truth[:5])


def test_dihedral_angle_frozen_cases():
    p0, p1, p2 = (0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)
    assert abs(dihedral_angle(p0, p1, p2, (1.0, 0.0, 1.0)) - math.pi / 2) <= 1e-12
    assert abs(dihedral_angle(p0, p1, p2, (1.0, 0.0, -1.0)) + math.pi / 2) <= 1e-12
    assert abs(dihedral_angle(p0, p1, p2, (1.0, 1.0, 0.0))) <= 1e-12          # cis
    assert abs(abs(dihedral_angle(p0, p1, p2, (1.0, -1.0, 0.0))) - math.pi) <= 1e-12  # trans


def test_bond_angle_frozen_cases():
    apex = (0.0, 0.0, 0.0)
    assert abs(bond_angle((1.0, 0.0, 0.0), apex, (0.0, 1.0, 0.0)) - math.pi / 2) <= 1e-12
    assert abs(bond_angle((1.0, 0.0, 0.0), apex, (-1.0, 0.0, 0.0)) - math.pi) <= 1e-12
