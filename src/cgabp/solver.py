"""Branch & Prune search over the binary tree of torsion-sign choices.

One depth-first walk, ``_search``, serves every mode.  Its children are
either the two conformal versor placements of the next vertex, or, in
symmetry mode, one solution kept as is or with its suffix reflected
through the plane of the three predecessors.  Either way, pruning tests
every known distance into the vertex just fixed, so every edge is checked
when its higher endpoint is fixed and leaves need no further verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .conformal import carrier_plane, compute_next_points, embed_point, extract_point, reflect_in_plane
from .dmdgp import Instance, InternalCoords, internal_coordinates, validate_instance
from .errors import InfeasibleInstanceError, InvalidInstanceError
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
    """Search settings.  ``use_symmetry`` derives the solutions from the
    first one found by suffix reflections instead of new placements; the
    result is the same as without it."""

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


def _torsion_magnitude(coords: InternalCoords, vertex: int) -> float:
    c = float(coords.dihedral_cos[vertex - 4])
    return math.acos(min(1.0, max(-1.0, c)))


def _candidates(points: np.ndarray, coords: InternalCoords, vertex: int):
    """Both torsion-sign placements for ``vertex`` given placed prefix."""
    a, b, c = (embed_point(points[vertex - 4 + k]) for k in range(3))
    theta = float(coords.bond_angles[vertex - 3])
    omega = _torsion_magnitude(coords, vertex)
    d = float(coords.bond_lengths[vertex - 2])
    plus, minus = compute_next_points(a, b, c, theta, omega, d)
    return extract_point(plus), extract_point(minus)


def _search(inst: Instance, children, points: np.ndarray, signs: list[int],
            opts: SolveOptions, out: list) -> bool:
    """Depth-first walk of the sign tree below ``points``.

    ``children(points, signs, vertex)`` yields ``(sign, child)`` pairs, +
    before -, where ``child`` fixes vertex ``vertex`` (and may hold points
    beyond it).  A child survives when ``prune_check`` accepts its prefix
    up to ``vertex``; since every edge is tested when its higher endpoint
    is fixed, each leaf satisfies every distance within ``eps``.  Returns
    True when the caller should stop (solution cap reached).
    """
    vertex = len(signs) + 4
    if vertex > inst.n:
        out.append((points.copy(), BranchPath(tuple(signs))))
        return opts.mode == "first" or (
            opts.max_solutions is not None and len(out) >= opts.max_solutions)
    for sign, child in children(points, signs, vertex):
        if not prune_check(child[:vertex], inst, opts.eps):
            continue
        signs.append(sign)
        stop = _search(inst, children, child, signs, opts, out)
        signs.pop()
        if stop:
            return True
    return False


def _placements(coords: InternalCoords):
    """Children that append one of the two versor placements of ``vertex``."""
    def children(points, signs, vertex):
        for sign, candidate in zip((1, -1), _candidates(points, coords, vertex)):
            yield sign, np.vstack([points, candidate])
    return children


def _reflections(base_signs: tuple[int, ...]):
    """Children that keep a full realization as is, or reflect its suffix
    from ``vertex`` on, whichever gives ``vertex`` the child's sign.

    ``points`` comes from the solution with ``base_signs`` by reflections at
    earlier vertices.  Each flipped every later sign, so ``vertex`` differs
    from its base sign exactly when its predecessor does.
    """
    def children(points, signs, vertex):
        k = vertex - 4
        current = base_signs[k]
        if signs and signs[-1] != base_signs[k - 1]:
            current = -current
        for sign in (1, -1):
            yield sign, points if sign == current else reflect_suffix(points, vertex)
    return children


def solve(inst: Instance, opts: SolveOptions = SolveOptions()):
    """All (or the first) realizations of a discretizable instance.

    Returns a list of (realization, branch path) pairs in deterministic
    depth-first order (the + branch is explored before -).  An instance
    with no realization yields an empty list; a non-discretizable one
    raises InvalidInstanceError.

    With ``use_symmetry`` the placement search stops at its first
    solution, and the same walk then runs again with suffix reflections
    of that solution as children instead of new placements.  It gives the
    branch paths of plain search, in the same order, with coordinates that
    agree to rounding error.
    """
    report = validate_instance(inst)
    if not report.is_dmdgp:
        raise InvalidInstanceError(report)
    try:
        coords = internal_coordinates(inst)
    except InfeasibleInstanceError:
        return []
    anchor = initialize_first_three(coords)
    if not prune_check(anchor[:2], inst, opts.eps) or not prune_check(anchor, inst, opts.eps):
        return []
    out: list = []
    placement_opts = replace(opts, mode="first") if opts.use_symmetry else opts
    _search(inst, _placements(coords), anchor, [], placement_opts, out)
    if opts.use_symmetry and out:
        (base, path), out = out[0], []
        _search(inst, _reflections(path.signs), base, [], opts, out)
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
