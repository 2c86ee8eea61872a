"""Algebra kernel tests: metric axioms, product identities, versor machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cgabp import ga
from cgabp.ga import (DIM, E1, E2, E3, EM, EP, I5, I5_SQ, NI, NO, Multivector,
                      bivector_exp, dual, geometric_product as gp, grade_project,
                      outer_product as op, reverse, scalar, scalar_product as sp,
                      versor_apply, versor_inverse)
from cgabp.solver import compose_motor_floats, motor_origin_floats

from conftest import einsum_compose, einsum_origin, motor_tables

coeff_arrays = arrays(np.float64, DIM, elements=st.floats(-1.0, 1.0))
multivectors = coeff_arrays.map(Multivector)
vec3 = arrays(np.float64, 3, elements=st.floats(-2.0, 2.0))


def test_metric_squares():
    for e in (E1, E2, E3, EP):
        assert gp(e, e).allclose(scalar(1.0), tol=0.0)
    assert gp(EM, EM).allclose(scalar(-1.0), tol=0.0)


def test_null_vectors():
    assert abs(sp(NI, NI)) <= 1e-14
    assert abs(sp(NO, NO)) <= 1e-14
    assert abs(sp(NI, NO) + 1.0) <= 1e-14


def test_origin_infinity_anticommutator():
    # expand ni = em - ep, no = (em + ep)/2 by hand: no ni + ni no = -2
    m = gp(NO, NI) + gp(NI, NO)
    assert m.allclose(scalar(-2.0), tol=1e-14)


def test_wedge_basics():
    assert op(E1, E1).allclose(scalar(0.0), tol=0.0)
    assert op(E1, E2).allclose(-op(E2, E1), tol=0.0)
    assert op(E1, E2).allclose(ga.blade(0b00011), tol=0.0)


def test_origin_wedge_infinity_is_ep_em():
    # (em + ep)/2 ^ (em - ep) = ep ^ em by bilinearity and ep^ep = em^em = 0
    assert op(NO, NI).allclose(op(EP, EM), tol=1e-15)


def test_scalar_product_examples():
    assert sp(E1, E1) == 1.0
    assert sp(E1, E2) == 0.0
    assert abs(sp(NI, NO) + 1.0) <= 1e-15


def test_reverse_examples():
    assert reverse(scalar(5.0)).allclose(scalar(5.0), tol=0.0)
    e12 = op(E1, E2)
    assert reverse(e12).allclose(-e12, tol=0.0)
    e123 = op(op(E1, E2), E3)
    assert reverse(e123).allclose(-e123, tol=0.0)


def test_grade_project():
    m = scalar(1.0) + op(E1, E2)
    assert grade_project(m, 0).allclose(scalar(1.0), tol=0.0)
    assert grade_project(m, 2).allclose(op(E1, E2), tol=0.0)
    assert grade_project(op(op(E1, E2), E3), 1).allclose(scalar(0.0), tol=0.0)
    with pytest.raises(ValueError):
        grade_project(m, 6)
    with pytest.raises(ValueError):
        grade_project(m, -1)


def test_dual_examples():
    assert dual(I5).allclose(scalar(1.0), tol=1e-15)
    assert dual(scalar(1.0)).allclose(ga.I5_INV, tol=1e-15)
    assert I5_SQ == -1.0


def test_double_dual_is_pseudoscalar_square(rng):
    a = Multivector(rng.uniform(-1, 1, DIM))
    assert dual(dual(a)).allclose(a * I5_SQ, tol=1e-12)


def test_versor_inverse_examples():
    assert versor_inverse(scalar(1.0)).allclose(scalar(1.0), tol=0.0)
    assert versor_inverse(E1).allclose(E1, tol=0.0)
    alpha = 0.3
    r = scalar(math.cos(alpha)) + op(E1, E2) * math.sin(alpha)
    assert versor_inverse(r).allclose(scalar(math.cos(alpha)) - op(E1, E2) * math.sin(alpha),
                                      tol=1e-15)
    assert gp(r, versor_inverse(r)).allclose(scalar(1.0), tol=1e-15)


def test_versor_inverse_rejects_null_and_non_versor():
    with pytest.raises(ValueError, match="not invertible"):
        versor_inverse(NI)
    with pytest.raises(ValueError, match="not a versor"):
        versor_inverse(scalar(1.0) + E1 + op(E2, E3))


def _exp_series(b: Multivector, terms: int = 20) -> Multivector:
    total = scalar(1.0)
    power = scalar(1.0)
    for k in range(1, terms):
        power = gp(power, b) / k
        total = total + power
    return total


def test_bivector_exp_against_power_series():
    assert bivector_exp(scalar(0.0)).allclose(scalar(1.0), tol=0.0)
    theta = math.pi
    b = op(E1, E2) * (theta / 2.0)
    assert bivector_exp(b).allclose(_exp_series(b), tol=1e-12)
    assert bivector_exp(b).allclose(op(E1, E2), tol=1e-12)
    # hyperbolic branch
    h = gp(E1, EM) * 0.4
    assert bivector_exp(h).allclose(_exp_series(h), tol=1e-12)


def test_bivector_exp_nilpotent_translator_form():
    b = -gp(E1, NI) * 0.5  # translator generator for a unit step along e1
    assert bivector_exp(b).allclose(scalar(1.0) + b, tol=0.0)


def test_bivector_exp_rejections():
    with pytest.raises(ValueError, match="grade-2"):
        bivector_exp(E1)
    mixed = op(E1, E2) + gp(E3, EP)  # square has a grade-4 part
    with pytest.raises(ValueError, match="not a scalar"):
        bivector_exp(mixed)


def test_versor_apply_identity_and_reflection():
    a = scalar(0.7) + op(E1, E3) * 0.2
    assert versor_apply(scalar(1.0), a).allclose(a, tol=0.0)
    assert versor_apply(E3, E3).allclose(E3, tol=0.0)
    assert versor_apply(E3, E1).allclose(-E1, tol=0.0)


def test_versor_apply_rotation_matches_matrix():
    # sandwiching with exp(+(phi/2) e12) rotates e1-e2 components by -phi
    phi = math.pi / 2
    r = bivector_exp(op(E1, E2) * (phi / 2.0))
    rotated = versor_apply(r, E1)
    mat = np.array([[math.cos(-phi), -math.sin(-phi)], [math.sin(-phi), math.cos(-phi)]])
    expected = mat @ np.array([1.0, 0.0])
    assert abs(rotated.coeffs[1] - expected[0]) <= 1e-15
    assert abs(rotated.coeffs[2] - expected[1]) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(multivectors, multivectors, multivectors)
def test_associativity(a, b, c):
    lhs = gp(gp(a, b), c)
    rhs = gp(a, gp(b, c))
    bound = 1e-10 * max(1.0, a.max_abs()) * max(1.0, b.max_abs()) * max(1.0, c.max_abs())
    assert (lhs - rhs).max_abs() <= bound


@settings(max_examples=60, deadline=None)
@given(multivectors, multivectors, multivectors)
def test_distributivity(a, b, c):
    lhs = gp(a, b + c)
    rhs = gp(a, b) + gp(a, c)
    assert (lhs - rhs).max_abs() <= 1e-10 * max(1.0, a.max_abs())


@settings(max_examples=60, deadline=None)
@given(multivectors, multivectors)
def test_reverse_antihomomorphism(a, b):
    assert (reverse(gp(a, b)) - gp(reverse(b), reverse(a))).max_abs() <= 1e-12 * max(
        1.0, a.max_abs() * b.max_abs()
    )


@settings(max_examples=60, deadline=None)
@given(vec3, vec3)
def test_wedge_is_antisymmetrized_product_on_vectors(u, v):
    mu, mv = ga.euclidean_vector(u), ga.euclidean_vector(v)
    assert (op(mu, mv) - (gp(mu, mv) - gp(mv, mu)) * 0.5).max_abs() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(-math.pi, math.pi), vec3, vec3, st.floats(0.1, 2.0))
def test_versor_apply_is_isometry(angle, u, v, step):
    rotor = bivector_exp(op(E1, E2) * (angle / 2.0))
    translator = scalar(1.0) - gp(ga.euclidean_vector([step, 0.0, step]), NI) * 0.5
    versor = gp(translator, rotor)
    a, b = ga.euclidean_vector(u), ga.euclidean_vector(v)
    before = sp(a, b)
    after = sp(versor_apply(versor, a), versor_apply(versor, b))
    assert abs(before - after) <= 1e-10 * max(1.0, abs(before))


def test_rotor_normalization(rng):
    for _ in range(50):
        b = op(E1, E2) * rng.uniform(-2, 2) + op(E1, E3) * rng.uniform(-2, 2) \
            + op(E2, E3) * rng.uniform(-2, 2)
        if gp(b, b).scalar >= -1e-9:
            continue
        r = bivector_exp(b)
        assert gp(r, reverse(r)).allclose(scalar(1.0), tol=1e-12)


def test_null_basis_round_trip(rng):
    a = Multivector(rng.uniform(-1, 1, DIM))
    again = ga.from_null_basis_coeffs(ga.null_basis_coeffs(a))
    assert again.allclose(a, tol=1e-14)


def test_motor_coeff_round_trip(rng):
    coords = rng.uniform(-1, 1, 8)
    m = ga.motor_from_coeffs(coords)
    back, residual = ga.motor_coeffs(m)
    assert np.max(np.abs(back - coords)) <= 1e-14
    assert residual <= 1e-14


def test_motor_origin_matches_dense_sandwich(rng):
    for _ in range(20):
        rotor = bivector_exp(op(E1, E2) * rng.uniform(-2, 2) + op(E1, E3) * rng.uniform(-2, 2)
                             + op(E2, E3) * rng.uniform(-2, 2))
        translator = scalar(1.0) - gp(ga.euclidean_vector(rng.uniform(-3, 3, 3)), NI) * 0.5
        motor = gp(translator, rotor)
        dense = gp(gp(motor, NO), reverse(motor))
        got = np.array(motor_origin_floats(ga.motor_coeffs(motor)[0].tolist()))
        assert np.max(np.abs(got - dense.coeffs[[1, 2, 4]])) <= 1e-12


def test_format_multivector():
    m = op(E1, E2) * 1.5 - gp(E1, NI) * 0.5
    text = ga.format_multivector(m)
    assert "e12" in text and "e1 inf" in text
    assert ga.format_multivector(scalar(0.0)) == "0"


def test_multivector_immutable():
    with pytest.raises(AttributeError):
        E1.coeffs = np.zeros(DIM)
    with pytest.raises(ValueError):
        E1.coeffs[0] = 1.0


# finite coefficients across many magnitudes, exact zeros of either sign
motor_floats = st.one_of(st.floats(-1e6, 1e6, allow_subnormal=False),
                         st.sampled_from([0.0, -0.0, 1.0, -1.0]))
motor_vectors = arrays(np.float64, 8, elements=motor_floats)


def test_float_motor_maps_match_the_dense_tables():
    product, origin = motor_tables()
    eye = np.eye(8).tolist()
    for i in range(8):
        assert motor_origin_floats(eye[i]) == tuple(origin[i, i])
        for j in range(8):
            assert compose_motor_floats(eye[i], eye[j]) == tuple(product[i, j])
            if i < j:
                # the origin map is quadratic: e_i + e_j adds entries (i, j) and (j, i)
                pair = np.add(eye[i], eye[j]).tolist()
                expected = origin[i, i] + origin[j, j] + origin[i, j] + origin[j, i]
                assert motor_origin_floats(pair) == tuple(expected)


@settings(max_examples=300, deadline=None)
@given(a=motor_vectors, b=motor_vectors)
def test_float_motor_maps_are_bit_equal_to_einsum(a, b):
    got = np.array(compose_motor_floats(a.tolist(), b.tolist()))
    assert got.tobytes() == einsum_compose(a, b).tobytes()
    assert np.array(motor_origin_floats(a.tolist())).tobytes() == einsum_origin(a).tobytes()
