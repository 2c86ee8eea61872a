"""Branch & Prune search over the binary tree of torsion-sign choices.

One iterative depth-first loop serves every mode.  The frame of each
placed vertex is an 8-coefficient motor; a child composes its parent's
motor with one of the two step motors of its vertex (torsion +omega or
-omega), built once per solve, and its point is the new motor's image of
the origin.  Pruning tests every known distance into the vertex just
fixed, so every edge is checked when its higher endpoint is fixed and
leaves need no further verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# compute_next_points is the reference placement; the search does not call
# it, but perfbench/tracing.py wraps it under this module's name.
from .conformal import (carrier_plane, compute_next_points,  # noqa: F401
                        embed_point, extract_point, reflect_in_plane, step_motor)
from .dmdgp import Instance, InternalCoords, internal_coordinates, validate_instance
from .errors import InfeasibleInstanceError, InvalidInstanceError
from .ga import compose_motors, motor_origin
from .geometry import verify_realization


@dataclass(frozen=True)
class BranchPath:
    """Sign choices for vertices 4..n; entry k (0-based) governs vertex k + 4."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("branch signs must be +1 or -1")

    def __str__(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)

    @classmethod
    def from_string(cls, text: str) -> "BranchPath":
        table = {"+": 1, "-": -1}
        try:
            return cls(tuple(table[ch] for ch in text))
        except KeyError as exc:
            raise ValueError(f"invalid branch character {exc.args[0]!r}") from None


@dataclass(frozen=True)
class SolveOptions:
    """Search settings.  ``use_symmetry`` has no effect: the search is the
    same with or without it.  It is kept so that callers which still pass
    it keep working."""

    eps: float = 1e-4                 # pruning tolerance, angstroms
    mode: str = "all"                 # "all" | "first"
    max_solutions: int | None = None
    use_symmetry: bool = False

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.mode not in ("all", "first"):
            raise ValueError(f"mode must be 'all' or 'first', got {self.mode!r}")
        if self.max_solutions is not None and self.max_solutions < 1:
            raise ValueError("max_solutions must be at least 1")


def initialize_first_three(coords: InternalCoords) -> np.ndarray:
    """Canonical anchor killing the rigid-motion freedom: x1 at the origin,
    x2 on the negative x-axis, x3 in the upper half of the xy-plane."""
    d12 = float(coords.bond_lengths[0])
    d23 = float(coords.bond_lengths[1])
    theta = float(coords.bond_angles[0])
    pts = np.zeros((3, 3))
    pts[1] = (-d12, 0.0, 0.0)
    # angle at x2 between the rays to x1 (+x direction) and x3 must be theta
    pts[2] = pts[1] + d23 * np.array([math.cos(theta), math.sin(theta), 0.0])
    return pts


def prune_check(partial: np.ndarray, inst: Instance, eps: float) -> bool:
    """Feasibility of the last placed vertex against all known distances to it."""
    i = len(partial)
    x = partial[i - 1]
    for j, d in inst.neighbors_below(i):
        if abs(np.linalg.norm(x - partial[j - 1]) - d) > eps:
            return False
    return True


def solve(inst: Instance, opts: SolveOptions = SolveOptions()):
    """All (or the first) realizations of a discretizable instance.

    Returns a list of (realization, branch path) pairs in deterministic
    depth-first order (the + branch is explored before -).  An instance
    with no realization yields an empty list; a non-discretizable one
    raises InvalidInstanceError.

    When the two placements of a vertex lie within ``eps`` of each other
    (2 d sin(theta) |sin(omega)| <= eps, a planar torsion), only the +
    child is walked, so such a vertex does not double the solutions.
    """
    report = validate_instance(inst)
    if not report.is_dmdgp:
        raise InvalidInstanceError(report)
    try:
        coords = internal_coordinates(inst)
    except InfeasibleInstanceError:
        return []
    n = inst.n
    points = np.zeros((n, 3))
    points[:3] = initialize_first_three(coords)
    if not prune_check(points[:2], inst, opts.eps) or not prune_check(points[:3], inst, opts.eps):
        return []
    steps = []    # steps[k]: the motors placing vertex k + 4 at torsion +omega, then -omega
    for k in range(n - 3):
        theta, d = float(coords.bond_angles[k + 1]), float(coords.bond_lengths[k + 2])
        omega = math.acos(min(1.0, max(-1.0, float(coords.dihedral_cos[k]))))
        coincident = 2.0 * d * math.sin(theta) * math.sin(omega) <= opts.eps
        signs = (1,) if coincident else (1, -1)
        steps.append([step_motor(theta, sign * omega, d) for sign in signs])
    # motors[v] is the torsion_matrix frame at vertex v.  From the identity
    # frame at x1, a step back along -e1 (bond angle 0) reaches x2 and a step
    # with torsion pi reaches x3, the anchor frame.
    motors = np.zeros((n + 1, 8))
    motors[3] = compose_motors(step_motor(0.0, 0.0, float(coords.bond_lengths[0])),
                               step_motor(float(coords.bond_angles[0]), math.pi,
                                          float(coords.bond_lengths[1])))
    out: list = []
    tried = [0] * (n - 3)     # children of vertex k + 4 walked so far on the current path
    v = 4
    while v > 3:
        if v > n:
            out.append((points.copy(), BranchPath(tuple(1 if t == 1 else -1 for t in tried))))
            if opts.mode == "first" or len(out) == opts.max_solutions:
                break
            v -= 1
            continue
        k = v - 4
        if tried[k] == len(steps[k]):
            tried[k] = 0
            v -= 1
            continue
        motors[v] = compose_motors(motors[v - 1], steps[k][tried[k]])
        tried[k] += 1
        points[v - 1] = motor_origin(motors[v])
        if prune_check(points[:v], inst, opts.eps):
            v += 1
    return out


def reflect_suffix(realization: np.ndarray, vertex: int) -> np.ndarray:
    """Reflect points vertex..n through the plane of the three predecessors.

    An involution; it flips the torsion signs of every vertex from
    ``vertex`` on while preserving all distances within the prefix and
    within the suffix.
    """
    r = np.asarray(realization, dtype=float)
    if not 4 <= vertex <= len(r):
        raise ValueError(f"reflection vertex must be in 4..n, got {vertex}")
    plane = carrier_plane(*(embed_point(r[vertex - 4 + k]) for k in range(3)))
    out = r.copy()
    for idx in range(vertex - 1, len(r)):
        out[idx] = extract_point(reflect_in_plane(plane, embed_point(r[idx])))
    return out


def expand_by_symmetry(base, targets, inst: Instance, eps: float = 1e-4):
    """Realizations for ``targets`` built from one solved (realization, path).

    Walking vertices in ascending order, a reflection is applied wherever
    the current sign differs from the target (each reflection flips the
    whole suffix, so planes are recomputed from the updated points).
    Results violating any instance distance by more than ``eps`` are
    silently dropped.
    """
    base_realization, base_path = base
    out = []
    for target in targets:
        signs = list(base_path.signs)
        if len(target.signs) != len(signs):
            raise ValueError("target path length does not match base")
        r = np.asarray(base_realization, dtype=float).copy()
        for vertex in range(4, inst.n + 1):
            k = vertex - 4
            if signs[k] != target.signs[k]:
                r = reflect_suffix(r, vertex)
                for j in range(k, len(signs)):
                    signs[j] = -signs[j]
        max_viol, _ = verify_realization(inst, r, eps)
        if max_viol <= eps:
            out.append(r)
    return out
