"""Classical coordinate-geometry references: trilateration, torsion-matrix
placement and realization verification.

These are the independent implementations the conformal pipeline is
cross-validated against, so nothing in here may call into :mod:`cgabp.ga`
or :mod:`cgabp.conformal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError


@dataclass(frozen=True)
class TrilaterationResult:
    """Intersection of three spheres: two points, a tangent point, or empty."""

    kind: str                      # "two-points" | "tangent-point" | "empty"
    points: tuple[np.ndarray, ...]

    def __post_init__(self):
        expected = {"two-points": 2, "tangent-point": 1, "empty": 0}
        if self.kind not in expected:
            raise ValueError(f"unknown kind {self.kind!r}")
        if len(self.points) != expected[self.kind]:
            raise ValueError(f"kind {self.kind} expects {expected[self.kind]} points")


def _local_frame(p1, p2, p3):
    """Orthonormal frame (ex, ey, ez) spanning the plane of three centers."""
    p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p1, p2, p3))
    ex = p2 - p1
    nx = np.linalg.norm(ex)
    if nx < 1e-12:
        raise DegenerateGeometryError("coincident centers")
    ex = ex / nx
    t = p3 - p1
    i = float(np.dot(ex, t))
    ey = t - i * ex
    ny = np.linalg.norm(ey)
    if ny < 1e-10 * max(1.0, np.linalg.norm(t)):
        raise DegenerateGeometryError("collinear centers")
    ey = ey / ny
    ez = np.cross(ex, ey)
    return p1, ex, ey, ez, nx, i, float(np.dot(ey, t))


def trilaterate(p1, p2, p3, d1: float, d2: float, d3: float,
                disc_tol: float = 1e-9) -> TrilaterationResult:
    """Intersect spheres of radii d1, d2, d3 centered at p1, p2, p3.

    The system is solved in the orthonormal frame of the centers; the
    out-of-plane discriminant decides the result kind: values in
    [-disc_tol, 0] count as tangent, below that as empty.
    """
    origin, ex, ey, ez, d, i, j = _local_frame(p1, p2, p3)
    x = (d1 * d1 - d2 * d2 + d * d) / (2.0 * d)
    y = (d1 * d1 - d3 * d3 + i * i + j * j) / (2.0 * j) - (i / j) * x
    z2 = d1 * d1 - x * x - y * y
    if z2 < -disc_tol:
        return TrilaterationResult("empty", ())
    base = origin + x * ex + y * ey
    if z2 <= 0.0:
        return TrilaterationResult("tangent-point", (base,))
    z = math.sqrt(z2)
    return TrilaterationResult("two-points", (base + z * ez, base - z * ez))


def bond_angle(p_prev, apex, p_next) -> float:
    """Angle at ``apex`` between the rays to ``p_prev`` and ``p_next``."""
    u = np.asarray(p_prev, dtype=float) - np.asarray(apex, dtype=float)
    v = np.asarray(p_next, dtype=float) - np.asarray(apex, dtype=float)
    c = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.acos(min(1.0, max(-1.0, float(c))))


def dihedral_angle(p0, p1, p2, p3) -> float:
    """Signed torsion of the chain p0-p1-p2-p3 about the p1-p2 axis, in (-pi, pi]."""
    p0, p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p0, p1, p2, p3))
    b1, b2, b3 = p1 - p0, p2 - p1, p3 - p2
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    m = np.cross(n1, n2)
    y = float(np.dot(m, b2 / np.linalg.norm(b2)))
    x = float(np.dot(n1, n2))
    return math.atan2(y, x)


def torsion_matrix(a, b, c) -> np.ndarray:
    """Homogeneous 4x4 frame at ``c`` built from the two preceding bonds.

    Columns: unit bond direction b->c, its in-plane normal completion, the
    plane normal, and ``c`` as the translation.
    """
    a, b, c = (np.asarray(p, dtype=float) for p in (a, b, c))
    u = c - b
    nu = np.linalg.norm(u)
    if nu < 1e-12:
        raise DegenerateGeometryError("coincident frame points")
    u = u / nu
    n = np.cross(b - a, u)
    nn = np.linalg.norm(n)
    if nn < 1e-10 * max(1.0, np.linalg.norm(b - a)):
        raise DegenerateGeometryError("collinear frame points")
    n = n / nn
    m = np.cross(n, u)
    mat = np.eye(4)
    mat[:3, 0] = u
    mat[:3, 1] = m
    mat[:3, 2] = n
    mat[:3, 3] = c
    return mat


def spherical_offset(theta: float, omega: float, d: float) -> np.ndarray:
    """Local homogeneous coordinates of the new point: polar angle pi - theta."""
    s = math.sin(theta)
    return np.array([-d * math.cos(theta), d * s * math.cos(omega), d * s * math.sin(omega), 1.0])


def matrix_place_next(a, b, c, theta: float, omega: float, d: float):
    """Place the next chain point at bond length d, bond angle theta and
    torsion omega past (a, b, c); returns the omega and -omega placements."""
    mat = torsion_matrix(a, b, c)
    plus = (mat @ spherical_offset(theta, omega, d))[:3]
    minus = (mat @ spherical_offset(theta, -omega, d))[:3]
    return plus, minus


def lengths(diff: np.ndarray) -> np.ndarray:
    """Length of each row of an (m, 3) ``diff``, bit-equal to ``np.linalg.norm``
    of the row (the same dot)."""
    return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])


def verify_realization(inst, realization):
    """Largest absolute distance violation over the instance edges, in one
    pass over ``inst.edge_arrays()``.

    Returns ``(max_violation, worst_edge)``: the first edge, in input
    order, with the largest violation, a NaN counting as the largest, or
    ``(0.0, None)`` when the instance has no edges.
    """
    r = np.asarray(realization, dtype=float)
    if r.shape != (inst.n, 3):
        raise ValueError(f"realization shape {r.shape} does not match n={inst.n}")
    u, v, d = inst.edge_arrays()
    if not len(d):
        return 0.0, None
    viol = np.abs(lengths(r[u - 1] - r[v - 1]) - d)
    k = int(viol.argmax())   # the first NaN, if there is one
    return float(viol[k]), (int(u[k]), int(v[k]))
