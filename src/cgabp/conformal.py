"""The 3D conformal model on top of the Cl(4,1) kernel: point embedding,
carrier planes, translators and the versor construction that yields the
two candidate positions of the next chain vertex.  This is the dense
reference the tests and ``bench`` check placements against; the search
composes the closed-form step motors of ``solver`` instead.

A conformal point is a grade-1 null multivector normalized so that
``scalar_product(-NI, P) = 1``; helpers below keep that invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .ga import (Multivector, NI, NO, bivector_exp, dual, euclidean_vector,
                 geometric_product as gp, outer_product as op, reverse, scalar,
                 scalar_product as sp, versor_inverse)


def embed_point(x) -> Multivector:
    """Null-vector embedding of a Euclidean point: NO + x + (|x|^2 / 2) NI."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,) or not np.all(np.isfinite(x)):
        raise ValueError("expected a finite Euclidean 3-vector")
    return NO + euclidean_vector(x) + NI * (0.5 * float(np.dot(x, x)))


def normalize_point(p: Multivector) -> Multivector:
    """Rescale so the infinity weight is 1; rejects zero-weight inputs."""
    w = -sp(NI, p)
    if abs(w) < 1e-12 * max(1.0, p.max_abs()):
        raise ValueError("point has no finite representative (zero infinity weight)")
    return p / w


def extract_point(p: Multivector, null_tol: float = 1e-10) -> np.ndarray:
    """Euclidean coordinates of a conformal point; inverse of embed_point.

    The input may carry any nonzero overall scale.  Inputs that are not
    null vectors (within ``null_tol`` of the point's own scale) are
    rejected.
    """
    pn = normalize_point(p)
    x = pn.coeffs[[1, 2, 4]].copy()
    scale = max(1.0, float(np.dot(x, x)))
    if abs(sp(pn, pn)) > null_tol * scale:
        raise ValueError("multivector is not a null point")
    return x


def point_distance(p: Multivector, q: Multivector) -> float:
    """Euclidean distance via the conformal inner product: -2 P.Q = |x-y|^2."""
    d2 = -2.0 * sp(p, q)
    if d2 < -1e-12:
        raise ValueError(f"inconsistent conformal points: squared distance {d2:.3e}")
    return math.sqrt(max(d2, 0.0))


def carrier_plane(a: Multivector, b: Multivector, c: Multivector) -> Multivector:
    """Unit-weight plane blade a ^ b ^ c ^ NI through three finite points.

    Usable directly as a reflection versor.  The blade's weight is
    |(b - a) x (c - a)|; collinear or coincident points, whose weight is at
    most 1e-10 |b - a| |c - a| wherever they lie, are rejected.
    """
    blade = op(op(op(a, b), c), NI)
    weight = math.sqrt(abs(sp(blade, reverse(blade))))
    xa, xb, xc = (extract_point(p) for p in (a, b, c))
    if weight <= 1e-10 * np.linalg.norm(xb - xa) * np.linalg.norm(xc - xa):
        raise DegenerateGeometryError("carrier points are collinear")
    return blade / weight


def reflect_in_plane(plane: Multivector, p: Multivector) -> Multivector:
    """Sandwich a point with a plane versor and renormalize."""
    return normalize_point(gp(gp(plane, p), versor_inverse(plane)))


def make_translator(v, d: float) -> Multivector:
    """Translator 1 - (d/2) (v/|v|) NI moving points by d along v."""
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv < 1e-12:
        raise ValueError("translator direction has zero length")
    return scalar(1.0) - gp(euclidean_vector(v / nv), NI) * (0.5 * d)


def _unit_rotation_generator(b: Multivector) -> Multivector:
    """Scale a bivector with negative scalar square to unit magnitude."""
    b2 = gp(b, b)
    s = b2.scalar
    if (b2 - scalar(s)).max_abs() > 1e-9 * max(1.0, b.max_abs() ** 2) or s > -1e-14:
        raise DegenerateGeometryError("rotation generator is degenerate")
    return b / math.sqrt(-s)


@dataclass(frozen=True)
class PlacementStep:
    """All intermediate versors of one chain-extension step."""

    plane: Multivector            # carrier plane of the three predecessors
    bond_rotor: Multivector       # rotation taking the extended bond to angle theta
    torsion_rotor: Multivector    # rotation about the previous bond axis
    bond_direction: np.ndarray    # Euclidean x_{i-1} - x_{i-2}
    shifted_torsion: float        # omega - pi/2, the torsion rotor's angle
    translator: Multivector       # pure translation by d along the bond
    combined_versor: Multivector  # the motor taking x_{i-1} to the new point


def build_placement_step(a: Multivector, b: Multivector, c: Multivector,
                         theta: float, omega: float, d: float) -> PlacementStep:
    """Construct the versors placing the next vertex after (a, b, c).

    ``theta`` is the geometric bond angle at ``c`` (in (0, pi)), ``omega``
    the signed torsion, ``d`` the new bond length.  The bond rotor turns
    the straight-line extension by the supplement pi - theta; its
    generator is the unit dual of (Pi (b ^ c)) ^ NI, the line in the
    carrier plane perpendicular to the bond.  The torsion generator (the
    unit dual of the bond line b ^ c ^ NI) is negated so that the direct
    output realizes +omega under the right-handed signed-dihedral
    convention.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"bond angle must be in (0, pi), got {theta}")
    if d <= 0.0:
        raise ValueError(f"bond length must be positive, got {d}")
    plane = carrier_plane(a, b, c)
    bond_blade = op(b, c)
    gen_bond = _unit_rotation_generator(dual(op(gp(plane, bond_blade), NI)))
    gen_torsion = -_unit_rotation_generator(dual(op(bond_blade, NI)))
    bond_rotor = bivector_exp(gen_bond * (0.5 * (math.pi - theta)))
    shifted = omega - 0.5 * math.pi
    torsion_rotor = bivector_exp(gen_torsion * (0.5 * shifted))
    v = extract_point(c) - extract_point(b)
    translator = make_translator(v, d)
    w = gp(torsion_rotor, bond_rotor)
    combined = gp(gp(w, translator), reverse(w))  # rotors are unit: inverse = reverse
    return PlacementStep(plane, bond_rotor, torsion_rotor, v, shifted, translator, combined)


def compute_next_points(a: Multivector, b: Multivector, c: Multivector,
                        theta: float, omega: float, d: float):
    """Two candidate conformal points for the next vertex.

    The first realizes torsion +omega, the second is its reflection in
    the predecessors' plane (torsion -omega); both sit at bond length d
    from c with bond angle theta.
    """
    step = build_placement_step(a, b, c, theta, omega, d)
    f = step.combined_versor
    direct = normalize_point(gp(gp(f, c), reverse(f)))
    mirrored = reflect_in_plane(step.plane, direct)
    return direct, mirrored
