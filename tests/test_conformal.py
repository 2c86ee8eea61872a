"""Conformal model tests: embedding, planes, translators, and the versor
placement construction cross-checked against both classical oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cgabp import ga
from cgabp.conformal import (build_placement_step, carrier_plane,
                             compute_next_points, embed_point, extract_point,
                             make_translator, normalize_point, point_distance,
                             reflect_in_plane)
from cgabp.errors import DegenerateGeometryError
from cgabp.ga import NI, NO, geometric_product as gp, reverse, scalar_product as sp, versor_apply
from cgabp.geometry import (bond_angle, dihedral_angle, matrix_place_next, torsion_matrix,
                            trilaterate)
from cgabp.solver import step_motor

from conftest import (angle_gap, einsum_compose, householder_reflect, radii_from_internal,
                      random_placement_case)

coords3 = arrays(np.float64, 3, elements=st.floats(-10.0, 10.0))


class TestEmbedExtract:
    def test_origin_embeds_to_no(self):
        assert embed_point([0.0, 0.0, 0.0]).allclose(NO, tol=0.0)

    def test_unit_x_frozen_form(self):
        expected = NO + ga.E1 + NI * 0.5
        assert embed_point([1.0, 0.0, 0.0]).allclose(expected, tol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(coords3)
    def test_embedded_points_are_null(self, x):
        p = embed_point(x)
        assert abs(sp(p, p)) <= 1e-10 * max(1.0, float(np.dot(x, x)))

    @settings(max_examples=100, deadline=None)
    @given(coords3)
    def test_round_trip(self, x):
        assert np.max(np.abs(extract_point(embed_point(x)) - x)) <= 1e-12

    def test_extraction_is_scale_invariant(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(extract_point(embed_point(x) * 2.5), x, atol=1e-12)
        assert np.allclose(extract_point(embed_point(x) * -0.3), x, atol=1e-12)

    def test_rejects_non_point_inputs(self):
        with pytest.raises(ValueError, match="finite"):
            embed_point([np.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="no finite representative"):
            extract_point(ga.E1)          # zero infinity weight
        with pytest.raises(ValueError, match="not a null point"):
            extract_point(NO + ga.E1)     # grade-1 but not null


class TestPointDistance:
    def test_zero_for_identical(self):
        p = embed_point([0.3, -0.2, 5.0])
        assert point_distance(p, p) == 0.0

    def test_three_four_five(self):
        assert abs(point_distance(embed_point([0, 0, 0]), embed_point([3, 4, 0])) - 5.0) <= 1e-12

    def test_matches_euclidean_norm(self, rng):
        for _ in range(1000):
            x, y = rng.uniform(-10, 10, (2, 3))
            expected = np.linalg.norm(x - y)
            got = point_distance(embed_point(x), embed_point(y))
            assert abs(got - expected) <= 1e-10 * max(1.0, expected)

    def test_inconsistent_pair_rejected(self):
        p, q = embed_point([0, 0, 0]), embed_point([1, 0, 0])
        with pytest.raises(ValueError, match="inconsistent"):
            point_distance(p, -1.0 * q)


class TestCarrierPlane:
    def test_z_plane_reflection(self):
        plane = carrier_plane(embed_point([0, 0, 0]), embed_point([1, 0, 0]),
                              embed_point([0, 1, 0]))
        reflected = reflect_in_plane(plane, embed_point([0, 0, 1]))
        assert np.allclose(extract_point(reflected), [0, 0, -1], atol=1e-12)

    def test_defining_points_are_fixed(self, rng):
        pts = rng.uniform(-2, 2, (3, 3))
        plane = carrier_plane(*(embed_point(p) for p in pts))
        for p in pts:
            assert np.max(np.abs(extract_point(reflect_in_plane(plane, embed_point(p))) - p)) <= 1e-10

    def test_matches_householder_oracle(self, rng):
        for _ in range(100):
            pts = rng.uniform(-3, 3, (3, 3))
            if np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0])) < 0.3:
                continue
            x = rng.uniform(-3, 3, 3)
            plane = carrier_plane(*(embed_point(p) for p in pts))
            got = extract_point(reflect_in_plane(plane, embed_point(x)))
            assert np.max(np.abs(got - householder_reflect(x, *pts))) <= 1e-10

    def test_reflection_involution(self, rng):
        pts = rng.uniform(-2, 2, (3, 3))
        plane = carrier_plane(*(embed_point(p) for p in pts))
        x = rng.uniform(-2, 2, 3)
        twice = reflect_in_plane(plane, reflect_in_plane(plane, embed_point(x)))
        assert np.max(np.abs(extract_point(twice) - x)) <= 1e-10

    def test_collinear_points_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            carrier_plane(embed_point([0, 0, 0]), embed_point([1, 0, 0]),
                          embed_point([2, 0, 0]))

    def test_plane_is_a_versor(self, rng):
        pts = rng.uniform(-2, 2, (3, 3))
        plane = carrier_plane(*(embed_point(p) for p in pts))
        assert ga.is_versor(plane)


class TestTranslator:
    def test_translates_the_origin(self):
        t = make_translator([1.0, 0.0, 0.0], 2.0)
        assert np.allclose(extract_point(versor_apply(t, NO)), [2.0, 0.0, 0.0], atol=1e-12)

    def test_zero_distance_is_identity(self):
        assert make_translator([0.0, 3.0, 0.0], 0.0).allclose(ga.scalar(1.0), tol=0.0)

    def test_unit_versor(self):
        t = make_translator([1.0, -2.0, 0.5], 1.7)
        assert gp(t, reverse(t)).allclose(ga.scalar(1.0), tol=1e-12)

    def test_translates_any_point_by_d_along_v(self, rng):
        for _ in range(50):
            v = rng.uniform(-1, 1, 3)
            if np.linalg.norm(v) < 0.1:
                continue
            d = rng.uniform(0, 3)
            x = rng.uniform(-5, 5, 3)
            t = make_translator(v, d)
            moved = extract_point(versor_apply(t, embed_point(x)))
            assert np.max(np.abs(moved - (x + d * v / np.linalg.norm(v)))) <= 1e-10

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="zero length"):
            make_translator([0.0, 0.0, 0.0], 1.0)


class TestComputeNextPoints:
    def test_zero_torsion_fixes_reflection(self, rng):
        a, b, c, theta, _, d = random_placement_case(rng)
        pa, pb, pc = (embed_point(p) for p in (a, b, c))
        direct, mirrored = compute_next_points(pa, pb, pc, theta, 0.0, d)
        assert np.max(np.abs(extract_point(direct) - extract_point(mirrored))) <= 1e-10

    def test_matches_both_oracles(self, rng):
        for _ in range(250):
            a, b, c, theta, omega, d = random_placement_case(rng)
            pa, pb, pc = (embed_point(p) for p in (a, b, c))
            direct, mirrored = compute_next_points(pa, pb, pc, theta, omega, d)
            x_plus, x_minus = extract_point(direct), extract_point(mirrored)
            m_plus, m_minus = matrix_place_next(a, b, c, theta, omega, d)
            assert np.max(np.abs(x_plus - m_plus)) <= 1e-8
            assert np.max(np.abs(x_minus - m_minus)) <= 1e-8
            radii = radii_from_internal(np.linalg.norm(a - b), np.linalg.norm(a - c),
                                        np.linalg.norm(b - c), theta, omega, d)
            tri = trilaterate(a, b, c, *radii)
            assert tri.kind == "two-points"
            for x in (x_plus, x_minus):
                assert min(np.max(np.abs(x - p)) for p in tri.points) <= 1e-8

    def test_realized_internal_coordinates(self, rng):
        for _ in range(100):
            a, b, c, theta, omega, d = random_placement_case(rng)
            direct, mirrored = compute_next_points(embed_point(a), embed_point(b),
                                                   embed_point(c), theta, omega, d)
            x = extract_point(direct)
            assert abs(np.linalg.norm(x - c) - d) <= 1e-9
            assert abs(bond_angle(b, c, x) - theta) <= 1e-9
            assert angle_gap(dihedral_angle(a, b, c, x), omega) <= 1e-9
            assert angle_gap(dihedral_angle(a, b, c, extract_point(mirrored)), -omega) <= 1e-9

    def test_branch_completeness(self, rng):
        # both candidates satisfy the bond length and bond angle; only the
        # torsion sign differs
        a, b, c, theta, omega, d = random_placement_case(rng)
        direct, mirrored = compute_next_points(embed_point(a), embed_point(b),
                                               embed_point(c), theta, omega, d)
        for p in (direct, mirrored):
            x = extract_point(p)
            assert abs(np.linalg.norm(x - c) - d) <= 1e-9
            assert abs(bond_angle(b, c, x) - theta) <= 1e-9

    def test_placement_step_versors_and_motor_sparsity(self, rng):
        for _ in range(50):
            a, b, c, theta, omega, d = random_placement_case(rng)
            step = build_placement_step(embed_point(a), embed_point(b), embed_point(c),
                                        theta, omega, d)
            for v in (step.plane, step.bond_rotor, step.torsion_rotor,
                      step.translator, step.combined_versor):
                assert ga.is_versor(v)
            _, residual = ga.motor_coeffs(step.combined_versor)
            assert residual <= 1e-12
            assert step.shifted_torsion == omega - math.pi / 2
            assert np.allclose(step.bond_direction, c - b, atol=1e-12)

    def test_versors_preserve_null_and_distance(self, rng):
        a, b, c, theta, omega, d = random_placement_case(rng)
        step = build_placement_step(embed_point(a), embed_point(b), embed_point(c),
                                    theta, omega, d)
        p = embed_point(rng.uniform(-3, 3, 3))
        q = embed_point(rng.uniform(-3, 3, 3))
        for v in (step.plane, step.bond_rotor, step.torsion_rotor,
                  step.translator, step.combined_versor):
            vp, vq = versor_apply(v, p), versor_apply(v, q)
            assert abs(sp(vp, vp)) <= 1e-10 * max(1.0, p.max_abs() ** 2)
            before = point_distance(p, q)
            after = point_distance(normalize_point(vp), normalize_point(vq))
            assert abs(before - after) <= 1e-10 * max(1.0, before)

    def test_invalid_arguments_rejected(self, rng):
        a, b, c, theta, omega, d = random_placement_case(rng)
        pa, pb, pc = (embed_point(p) for p in (a, b, c))
        with pytest.raises(ValueError, match="bond angle"):
            compute_next_points(pa, pb, pc, 0.0, omega, d)
        with pytest.raises(ValueError, match="bond angle"):
            compute_next_points(pa, pb, pc, math.pi, omega, d)
        with pytest.raises(ValueError, match="bond length"):
            compute_next_points(pa, pb, pc, theta, omega, 0.0)
        with pytest.raises(DegenerateGeometryError):
            compute_next_points(embed_point([0, 0, 0]), embed_point([1, 0, 0]),
                                embed_point([2, 0, 0]), theta, omega, d)


class TestStepMotor:
    @staticmethod
    def as_matrix(coords):
        """4x4 homogeneous matrix of a motor, by dense sandwiches of the
        origin and the unit points."""
        motor = ga.motor_from_coeffs(coords)
        image = [extract_point(versor_apply(motor, embed_point(p)))
                 for p in np.eye(4)[:, :3]]
        mat = np.eye(4)
        mat[:3, 3] = image[3]
        for k in range(3):
            mat[:3, k] = image[k] - image[3]
        return mat

    def test_carries_torsion_frame(self, rng):
        # torsion_matrix(b, c, x) == torsion_matrix(a, b, c) @ B(theta, omega, d)
        for _ in range(50):
            a, b, c, theta, omega, d = random_placement_case(rng)
            x = matrix_place_next(a, b, c, theta, omega, d)[0]
            via_motor = torsion_matrix(a, b, c) @ self.as_matrix(step_motor(theta, omega, d))
            assert np.max(np.abs(via_motor - torsion_matrix(b, c, x))) <= 1e-10

    # theta in [0, pi) and omega in [-pi, pi], with the signed zeros and +-pi
    # drawn often: they give zero coefficients, whose sign shows every term
    thetas = st.one_of(st.floats(0.0, math.pi, exclude_max=True), st.sampled_from([0.0, -0.0]))
    omegas = st.one_of(st.floats(-math.pi, math.pi),
                       st.sampled_from([0.0, -0.0, math.pi, -math.pi]))
    lengths = st.floats(1e-3, 1e3)

    @settings(max_examples=300, deadline=None)
    @given(shape=st.sampled_from(["scalar", "vector", "broadcast"]), data=st.data())
    def test_step_motor_is_the_product_of_its_factors(self, shape, data):
        """Bit for bit: the twist, the turn and the move as 8-coefficient
        motors, composed by the einsum over the dense tables."""
        if shape == "scalar":
            args = [data.draw(s) for s in (self.thetas, self.omegas, self.lengths)]
        else:
            k = data.draw(st.integers(1, 5))
            shapes = [(k,)] * 3
            if shape == "broadcast":
                shapes = [(3, 4)] * 3
                shapes[data.draw(st.integers(0, 2))] = (4,)
            args = [data.draw(arrays(np.float64, sh, elements=s))
                    for sh, s in zip(shapes, (self.thetas, self.omegas, self.lengths))]
        theta, omega, d = np.broadcast_arrays(*args)
        twist, turn, move = np.zeros((3,) + theta.shape + (8,))
        # twist: e2 toward e3; turn: e1 toward e2; move: 1 - (d/2) e1 inf
        twist[..., 0], twist[..., 3] = np.cos(0.5 * omega), -np.sin(0.5 * omega)
        turn[..., 0], turn[..., 1] = np.sin(0.5 * theta), -np.cos(0.5 * theta)
        move[..., 0], move[..., 4] = 1.0, -0.5 * d
        expected = einsum_compose(einsum_compose(twist, turn), move)
        got = step_motor(*args)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
