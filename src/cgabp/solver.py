"""Branch & Prune search over the binary tree of torsion-sign choices.

One iterative depth-first loop serves every mode.  The frame of each
placed vertex is an 8-coefficient motor; a child composes its parent's
motor with one of the two step motors of its vertex (torsion +omega or
-omega), and its point is the new motor's image of the origin.  The step
motors are built once per solve, as arrays, in closed form by
``conformal.step_motor``; the work per node runs on Python floats, since at
8 coefficients a NumPy call costs more than its arithmetic: the current
path is a list of point tuples, the parent motors 8-tuples, composed by
``ga.compose_motor_floats`` and mapped by ``ga.motor_origin_floats``, and
the prune check loops over the vertex's row of ``Instance.pruning_lists``.
Each edge is checked once, within ``eps`` angstroms: the discretization
edges (v-3..v-1, v), which fix a vertex's two candidates, at set-up
through the triangles and 4-cliques; the pruning edges (v - u >= 4) once
per node, so leaves need no further verification.

At a symmetry vertex v, which no pruning edge (u, w) spans with
u + 3 < v <= w, the - subtree is not walked: its leaves are the + subtree's
reflected through the plane of v-3..v-1, so they are made from those
when the search backtracks out of v, in the order the - subtree would
have given them.
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
from .ga import compose_motor_floats, motor_origin_floats
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
    def _trusted(cls, signs: tuple[int, ...]) -> "BranchPath":
        """The path of ``signs``, which hold only +1 and -1, without the check."""
        path = object.__new__(cls)
        path.__dict__["signs"] = signs
        return path

    @classmethod
    def from_string(cls, text: str) -> "BranchPath":
        table = {"+": 1, "-": -1}
        try:
            return cls(tuple(table[ch] for ch in text))
        except KeyError as exc:
            raise ValueError(f"invalid branch character {exc.args[0]!r}") from None


@dataclass(frozen=True)
class SolveOptions:
    """Search settings.  ``use_symmetry`` has no effect: the search always
    mirrors the - subtree of a symmetry vertex.  It is kept so that callers
    which still pass it keep working."""

    eps: float = 1e-4                 # largest distance error on any edge, angstroms
    mode: str = "all"                 # "all" | "first"
    max_solutions: int | None = None
    use_symmetry: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be a positive finite number, got {self.eps!r}")
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


def prune_check(partial, inst: Instance, eps: float) -> bool:
    """Whether the last placed vertex meets each of its pruning edges within
    ``eps``.  ``partial`` holds the points of vertices 1..v, as a list of
    (x, y, z) or a (v, 3) array.  Its discretization edges were checked at
    set-up: a placement meets them by construction.  A NaN distance prunes."""
    rows, far_u, far_d = inst.pruning_lists()
    v = len(partial)
    lo, hi = rows[v], rows[v + 1]
    if lo == hi:
        return True
    x, y, z = partial[-1]
    for k in range(lo, hi):
        px, py, pz = partial[far_u[k]]
        dx, dy, dz = px - x, py - y, pz - z
        if not abs(math.sqrt(dx * dx + dy * dy + dz * dz) - far_d[k]) <= eps:
            return False
    return True


def symmetry_vertices(inst: Instance) -> np.ndarray:
    """Mask over vertices 4..n (entry k is vertex k + 4) of the symmetry
    vertices: those v that no edge (u, w) spans with u + 3 < v <= w.

    A difference array over [u + 4, w] for every pruning edge, from two
    bincounts.  At such a vertex every edge from the prefix into the suffix
    starts on the plane of v-3..v-1, so reflecting the suffix through that
    plane keeps every distance.
    """
    u, w, _ = inst.edge_arrays()
    far = w - u >= 4
    size = inst.n + 2
    cover = np.bincount(u[far] + 4, minlength=size) - np.bincount(w[far] + 1, minlength=size)
    return cover.cumsum()[4:inst.n + 1] == 0


def _mirror(blocks, plane: np.ndarray, k: int, flip: np.ndarray):
    """The leaves of the - subtree of symmetry vertex k + 4, in search order,
    from the (points, signs) blocks of its + subtree: rows k + 3.. reflected
    through the plane of ``plane``'s three points, the order reversed and
    the signs from vertex k + 4 on multiplied by ``flip``."""
    pts = np.concatenate([p[::-1] for p, _ in reversed(blocks)])
    signs = np.concatenate([s[::-1] for _, s in reversed(blocks)])
    # the cross product on floats: np.cross costs tens of microseconds
    (ux, uy, uz), (wx, wy, wz) = (plane[1:] - plane[0]).tolist()
    normal = np.array((uy * wz - uz * wy, uz * wx - ux * wz, ux * wy - uy * wx))
    normal /= math.sqrt(normal @ normal)
    tail = pts[:, k + 3:]
    tail -= 2.0 * ((tail - plane[0]) @ normal)[..., None] * normal
    signs[:, k:] *= flip[k:]
    return pts, signs


def _emit(out: list, seen: set, pts: np.ndarray, signs: np.ndarray, near: np.ndarray,
          cap: int | None) -> bool:
    """Append leaves to ``out`` in order; True once it holds ``cap`` of them.
    A leaf is keyed by its signs with those at near-coincident vertices set
    to +, and dropped if ``seen`` already holds its key, that is, if it
    differs from a leaf returned before only at near-coincident vertices."""
    if near.size:
        keys = signs.copy()
        keys[:, near] = 1
        new = []
        for k, key in enumerate(map(bytes, keys)):
            if key not in seen:
                seen.add(key)
                new.append(k)
        pts, signs = pts[new], signs[new]
    room = len(pts) if cap is None else cap - len(out)
    out.extend(zip(pts[:room], map(BranchPath._trusted, map(tuple, signs[:room].tolist()))))
    return len(out) == cap


def solve(inst: Instance, opts: SolveOptions = SolveOptions()):
    """All (or the first) realizations of a discretizable instance.

    Returns a list of (realization, branch path) pairs in deterministic
    depth-first order (the + branch is explored before -).  An instance
    with no realization yields an empty list: so does one with a triangle
    that does not embed or a 4-clique that misses its own distance by more
    than ``eps`` (a NaN, from distances whose squares overflow, misses by
    more).  An instance of one or two vertices has one realization, the
    first points of the anchor, with an empty branch path.  A
    non-discretizable instance raises InvalidInstanceError.
    All step motors are built at once, in closed form.

    A vertex whose two placements lie within ``eps`` of each other
    (2 d sin(theta) |sin(omega)| <= eps) is near-coincident.  At a torsion
    of 0 or pi up to rounding only its + child is walked.  Otherwise both
    are, and the leaves are merged by path: a leaf whose branch path, with
    the signs at near-coincident vertices set to +, equals that of a leaf
    returned before it is dropped.  Its + twin comes first, since every
    walk and every mirrored block visits + before - under a shared prefix.
    So k such vertices divide the solutions by 2^k, whatever their distance
    from the anchor, and the merge costs one set lookup per leaf.

    At a symmetry vertex v (see ``symmetry_vertices``) only the + child
    is walked.  When the search backtracks out of v, the leaves reached
    below it (before the merge above) are reflected through the plane of
    v-3..v-1: these are exactly the leaves of the - subtree, since the
    reflection keeps every edge and so every prune.  They are returned in
    reverse order, which is the order the - subtree visits them in, with
    the signs of v and every later vertex flipped, except at planar
    vertices, which keep the + a walk gives them.  Each goes through the
    merge, and ``mode="first"`` and ``max_solutions`` count merged
    solutions, as for walked leaves.
    """
    report = validate_instance(inst)
    if not report.is_dmdgp:
        raise InvalidInstanceError(report)
    try:
        coords = internal_coordinates(inst)
    except InfeasibleInstanceError:
        return []
    if not np.all(coords.clique_miss <= opts.eps):   # a NaN miss fails too
        return []
    n = inst.n
    if n < 3:   # no bond angle: the first n points of the anchor are the one realization
        pts = np.zeros((n, 3))
        pts[1:, 0] = -coords.bond_lengths
        return [(pts, BranchPath(()))]
    theta, d = coords.bond_angles[1:], coords.bond_lengths[2:]
    omega = np.arccos(coords.dihedral_cos)
    # steps[k][0] and steps[k][1] place vertex k + 4 at torsion +omega and -omega
    steps = np.stack((step_motor(theta, omega, d), step_motor(theta, -omega, d)), axis=1).tolist()
    near = 2.0 * d * np.sin(theta) * np.sin(omega) <= opts.eps
    # cos(omega) within 1024 ulp of +-1 (omega within 7e-7 rad of 0 or pi) is
    # planar up to the closed form's rounding (a few hundred ulp on planar
    # chains); its - child would double the subtree below it, never pruned
    planar = near & (1.0 - np.abs(coords.dihedral_cos) <= 1024 * np.finfo(float).eps)
    # one child is walked at planar vertices and at symmetry vertices, whose
    # - subtree is mirrored when the search backtracks out of them
    mirror = symmetry_vertices(inst) & ~planar
    width = np.where(planar | mirror, 1, 2).tolist()
    flip = np.where(planar, 1, -1).astype(np.int8)   # sign change of a vertex in a mirrored suffix
    near, mirror = np.flatnonzero(near & ~planar), mirror.tolist()
    # frames[v] is the torsion_matrix frame at vertex v on the current path,
    # as 8 floats.  From the identity frame at x1, a step back along -e1
    # (bond angle 0) reaches x2 and a step with torsion pi reaches x3, the
    # anchor frame.
    frames = [None] * (n + 1)
    frames[3] = compose_motor_floats(step_motor(0.0, 0.0, coords.bond_lengths[0]).tolist(),
                                     step_motor(coords.bond_angles[0], math.pi,
                                                coords.bond_lengths[1]).tolist())
    path = [tuple(p) for p in initialize_first_three(coords).tolist()]   # points of 1..v-1
    eps = opts.eps
    cap = 1 if opts.mode == "first" else opts.max_solutions
    out: list = []
    seen: set = set()         # merge keys of the leaves returned so far, see _emit
    leaves: list = []         # (points, signs) blocks of every leaf reached, before the merge
    tried = [0] * (n - 3)     # children of vertex k + 4 walked so far on the current path
    start = [0] * (n - 3)     # len(leaves) when vertex k + 4's first child was walked
    v = 4
    while v > 3:
        if v > n:
            leaves.append((np.array(path)[None], np.array([[1 if t == 1 else -1 for t in tried]],
                                                          dtype=np.int8)))
            if _emit(out, seen, *leaves[-1], near, cap):
                break
            v -= 1
            path.pop()
            continue
        k = v - 4
        if tried[k] == width[k]:
            tried[k] = 0
            if mirror[k] and len(leaves) > start[k]:
                leaves.append(_mirror(leaves[start[k]:], np.array(path[k:k + 3]), k, flip))
                if _emit(out, seen, *leaves[-1], near, cap):
                    break
            v -= 1
            path.pop()
            continue
        if not tried[k]:
            start[k] = len(leaves)
        frames[v] = frame = compose_motor_floats(frames[v - 1], steps[k][tried[k]])
        tried[k] += 1
        path.append(motor_origin_floats(frame))
        if prune_check(path, inst, eps):
            v += 1
        else:
            path.pop()
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
        max_viol, _ = verify_realization(inst, r)
        if max_viol <= eps:
            out.append(r)
    return out
