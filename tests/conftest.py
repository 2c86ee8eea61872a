"""Shared test helpers: independent scalar-algebra oracles, the motor tables
read off the dense kernel, and input generators."""

import functools
import math

import numpy as np
import pytest

from cgabp import ga


def radii_from_internal(d_ab, d_ac, d_bc, theta, omega, d):
    """Distances from the new chain point to the three predecessors.

    Pure law-of-cosines algebra on the embedded quadruplet (no calls into
    the package): the predecessors span a triangle with side lengths
    d_ab, d_ac, d_bc; the new point sits at bond length d from c, bond
    angle theta at c and signed torsion omega.
    """
    r_b = math.sqrt(d_bc ** 2 + d ** 2 - 2.0 * d_bc * d * math.cos(theta))
    cos_tb = (d_ab ** 2 + d_bc ** 2 - d_ac ** 2) / (2.0 * d_ab * d_bc)
    theta_b = math.acos(max(-1.0, min(1.0, cos_tb)))
    du = d_bc - d * math.cos(theta) - d_ab * math.cos(theta_b)
    dm = d * math.sin(theta) * math.cos(omega) - d_ab * math.sin(theta_b)
    dn = d * math.sin(theta) * math.sin(omega)
    r_a = math.sqrt(du * du + dm * dm + dn * dn)
    return r_a, r_b, d


def angle_gap(x, y):
    """Distance between two angles modulo 2*pi."""
    return abs(math.remainder(x - y, 2.0 * math.pi))


def householder_reflect(point, plane_a, plane_b, plane_c):
    """Reflect a point through the plane of three points, by plain vectors."""
    point, plane_a, plane_b, plane_c = (np.asarray(p, dtype=float)
                                        for p in (point, plane_a, plane_b, plane_c))
    n = np.cross(plane_b - plane_a, plane_c - plane_a)
    n = n / np.linalg.norm(n)
    return point - 2.0 * np.dot(point - plane_a, n) * n


def random_placement_case(rng, theta_lo=0.2, theta_hi=None):
    """Non-collinear predecessors plus (theta, omega, d) in the usual ranges."""
    theta_hi = math.pi - theta_lo if theta_hi is None else theta_hi
    while True:
        a, b, c = rng.uniform(-3.0, 3.0, size=(3, 3))
        if np.linalg.norm(np.cross(b - a, c - b)) > 0.3:
            break
    theta = rng.uniform(theta_lo, theta_hi)
    omega = rng.uniform(-math.pi, math.pi)
    d = rng.uniform(0.5, 2.0)
    return a, b, c, theta, omega, d


@functools.cache
def motor_tables():
    """Structure constants of the motor subalgebra on its 8-blade support,
    (8, 8, 8), and the bilinear map taking a motor to the Euclidean part of
    its image of the origin, (8, 8, 3), both read off dense products of
    basis motors."""
    basis = [ga.motor_from_coeffs(np.eye(8)[k]) for k in range(8)]
    product = np.zeros((8, 8, 8))
    origin = np.zeros((8, 8, 3))
    for i in range(8):
        for j in range(8):
            coords, residual = ga.motor_coeffs(ga.geometric_product(basis[i], basis[j]))
            if residual > 1e-12:
                raise AssertionError("motor support is not closed under the product")
            product[i, j] = coords
            sandwich = ga.geometric_product(ga.geometric_product(basis[i], ga.NO),
                                            ga.reverse(basis[j]))
            origin[i, j] = sandwich.coeffs[[1, 2, 4]]
    product.flags.writeable = origin.flags.writeable = False
    return product, origin


def einsum_compose(a, b):
    """Product of motors given by their 8 coefficients, over the dense
    tables, broadcast over leading axes."""
    return np.einsum("...i,...j,ijk->...k", a, b, motor_tables()[0])


def einsum_origin(m):
    """A motor's image of the origin over the dense tables."""
    return np.einsum("i,j,ijk->k", m, m, motor_tables()[1])


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
