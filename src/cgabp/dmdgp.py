"""Distance-geometry instances with a total vertex order: representation,
discretizability validation, internal-coordinate extraction, synthetic
instance generation and coordinate-file ingestion.

File formats owned by this module (text, UTF-8, '#' starts a comment):

* instance file: first data line ``n m``, then m lines ``u v d`` with
  1-based ``u < v`` and a positive decimal distance;
* coordinate file: lines ``i x y z`` with contiguous 1-based indices;
* realization file: lines ``i x y z`` written with full float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FileFormatError, InfeasibleInstanceError
from .geometry import dihedral_angle, matrix_place_next, trilaterate

GENERATOR_BOND_LENGTH = 1.526   # angstroms, conventional backbone value
GENERATOR_BOND_ANGLE = 1.91     # radians


@dataclass(frozen=True)
class Instance:
    """Weighted graph over totally ordered vertices 1..n with exact distances."""

    n: int
    edges: tuple[tuple[int, int, float], ...]
    _dist: dict = field(init=False, repr=False, compare=False)
    _below: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        dist: dict[tuple[int, int], float] = {}
        below: dict[int, list[tuple[int, float]]] = {i: [] for i in range(1, self.n + 1)}
        norm = []
        for u, v, d in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u},{v}) violates 1 <= u < v <= n")
            if (u, v) in dist:
                raise ValueError(f"duplicate edge ({u},{v})")
            d = float(d)
            if d <= 0.0:
                raise ValueError(f"edge ({u},{v}) has non-positive distance {d}")
            dist[(u, v)] = d
            below[v].append((u, d))
            norm.append((u, v, d))
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_dist", dist)
        object.__setattr__(self, "_below", below)

    def distance(self, u: int, v: int) -> float | None:
        if u > v:
            u, v = v, u
        return self._dist.get((u, v))

    def neighbors_below(self, v: int) -> list[tuple[int, float]]:
        """Edges (u, d) with u < v, the pruning constraints for vertex v."""
        return self._below[v]


@dataclass(frozen=True)
class ValidationReport:
    is_dmdgp: bool
    missing_clique_edges: tuple[tuple[int, int], ...]
    triangle_violations: tuple[int, ...]


@dataclass(frozen=True)
class InternalCoords:
    """Chain description derived from distances.

    ``bond_lengths[i-2]`` is d(i-1, i) for i = 2..n, ``bond_angles[i-3]``
    the angle at i-1 for i = 3..n, and ``dihedral_cos[i-4]`` the cosine of
    the torsion for i = 4..n (the sign is not determined by distances).
    """

    n: int
    bond_lengths: np.ndarray
    bond_angles: np.ndarray
    dihedral_cos: np.ndarray

    def __post_init__(self):
        if np.any(self.bond_lengths <= 0):
            raise ValueError("bond lengths must be positive")
        if np.any((self.bond_angles <= 0) | (self.bond_angles >= math.pi)):
            raise ValueError("bond angles must lie in (0, pi)")
        if np.any(np.abs(self.dihedral_cos) > 1.0 + 1e-12):
            raise ValueError("dihedral cosines must lie in [-1, 1]")


def validate_instance(inst: Instance) -> ValidationReport:
    """Check the two discretizability assumptions.

    Reports every missing edge among pairs at chain distance <= 3 and every
    v in 1..n-2 whose consecutive triangle fails the *strict* inequality
    d(v, v+2) < d(v, v+1) + d(v+1, v+2).
    """
    missing = []
    for u in range(1, inst.n + 1):
        for v in range(u + 1, min(u + 3, inst.n) + 1):
            if inst.distance(u, v) is None:
                missing.append((u, v))
    violations = []
    for v in range(1, inst.n - 1):
        d02 = inst.distance(v, v + 2)
        d01 = inst.distance(v, v + 1)
        d12 = inst.distance(v + 1, v + 2)
        if None in (d02, d01, d12):
            continue  # already reported as missing
        if d02 >= d01 + d12:
            violations.append(v)
    return ValidationReport(not missing and not violations, tuple(missing), tuple(violations))


def _triangle_apex_angle(d_left: float, d_right: float, d_opposite: float) -> float:
    c = (d_left * d_left + d_right * d_right - d_opposite * d_opposite) / (2.0 * d_left * d_right)
    return math.acos(min(1.0, max(-1.0, c)))


def _embed_triangle(d12: float, d13: float, d23: float):
    """Canonical planar embedding of a triangle from its side lengths."""
    p1 = np.zeros(3)
    p2 = np.array([d12, 0.0, 0.0])
    x = (d12 * d12 + d13 * d13 - d23 * d23) / (2.0 * d12)
    y2 = d13 * d13 - x * x
    p3 = np.array([x, math.sqrt(max(y2, 0.0)), 0.0])
    return p1, p2, p3


def internal_coordinates(inst: Instance) -> InternalCoords:
    """Bond lengths, bond angles and unsigned torsions from distances.

    Angles come from the law of cosines; each torsion cosine comes from
    embedding the consecutive 4-clique via trilateration and measuring
    the resulting tetrahedron.  A 4-clique whose trilateration
    discriminant is below -1e-9 has no embedding and raises
    InfeasibleInstanceError.
    """
    n = inst.n
    lengths = np.array([inst.distance(i - 1, i) for i in range(2, n + 1)])
    angles = np.array([
        _triangle_apex_angle(inst.distance(i - 2, i - 1), inst.distance(i - 1, i),
                             inst.distance(i - 2, i))
        for i in range(3, n + 1)
    ]) if n >= 3 else np.zeros(0)
    cosines = np.zeros(max(n - 3, 0))
    for i in range(4, n + 1):
        q = (i - 3, i - 2, i - 1, i)
        p1, p2, p3 = _embed_triangle(inst.distance(*q[:2]), inst.distance(q[0], q[2]),
                                     inst.distance(q[1], q[2]))
        res = trilaterate(p1, p2, p3,
                          inst.distance(q[0], q[3]), inst.distance(q[1], q[3]),
                          inst.distance(q[2], q[3]))
        if res.kind == "empty":
            raise InfeasibleInstanceError(f"4-clique {q} admits no embedding")
        x = res.points[0]
        c = math.cos(dihedral_angle(p1, p2, p3, x))
        cosines[i - 4] = min(1.0, max(-1.0, c))
    return InternalCoords(n, lengths, angles, cosines)


def generate_instance(n: int, seed: int, extra_edge_fraction: float = 0.0):
    """Synthetic discretizable instance plus its ground-truth realization.

    The chain uses fixed bond length and bond angle (module constants) and
    seed-determined uniform torsions.  All pairs at chain distance <= 3
    become edges; of the remaining pairs, ``extra_edge_fraction`` are
    added, chosen deterministically from the seed.  Distances are exact
    distances of the ground truth.
    """
    if n < 4:
        raise ValueError(f"need at least 4 vertices, got {n}")
    if not 0.0 <= extra_edge_fraction <= 1.0:
        raise ValueError("extra_edge_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    torsions = rng.uniform(-math.pi, math.pi, size=n - 3)
    d0, th0 = GENERATOR_BOND_LENGTH, GENERATOR_BOND_ANGLE
    pts = np.zeros((n, 3))
    pts[1] = (-d0, 0.0, 0.0)
    pts[2] = pts[1] + d0 * np.array([math.cos(th0), math.sin(th0), 0.0])
    for i in range(3, n):
        pts[i] = matrix_place_next(pts[i - 3], pts[i - 2], pts[i - 1],
                                   th0, torsions[i - 3], d0)[0]

    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, min(u + 3, n) + 1):
            edges.append((u, v, float(np.linalg.norm(pts[u - 1] - pts[v - 1]))))
    k = int(round(extra_edge_fraction * ((n - 4) * (n - 3) // 2)))  # pairs with v - u >= 4
    if k:
        remaining = [(u, v) for u in range(1, n + 1) for v in range(u + 4, n + 1)]
        picked = rng.choice(len(remaining), size=k, replace=False)
        for idx in sorted(picked):
            u, v = remaining[idx]
            edges.append((u, v, float(np.linalg.norm(pts[u - 1] - pts[v - 1]))))
    edges.sort()
    return Instance(n, tuple(edges)), pts


# -- text formats -------------------------------------------------------------


def _data_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def parse_instance(text: str) -> Instance:
    lines = _data_lines(text)
    try:
        no, head = next(lines)
    except StopIteration:
        raise FileFormatError(1, "empty instance file") from None
    parts = head.split()
    if len(parts) != 2:
        raise FileFormatError(no, f"expected 'n m', got {head!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise FileFormatError(no, f"expected integers 'n m', got {head!r}") from None
    edges = []
    for no, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise FileFormatError(no, f"expected 'u v d', got {line!r}")
        try:
            u, v, d = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise FileFormatError(no, f"malformed edge line {line!r}") from None
        if not (1 <= u < v <= n):
            raise FileFormatError(no, f"edge ({u},{v}) out of range for n={n}")
        if d <= 0:
            raise FileFormatError(no, f"non-positive distance {d}")
        edges.append((u, v, d))
    if len(edges) != m:
        raise FileFormatError(no if edges else 1, f"header promises {m} edges, found {len(edges)}")
    try:
        return Instance(n, tuple(edges))
    except ValueError as exc:
        raise FileFormatError(1, str(exc)) from None


def format_instance(inst: Instance) -> str:
    out = [f"{inst.n} {len(inst.edges)}"]
    out += [f"{u} {v} {d:.17g}" for u, v, d in inst.edges]
    return "\n".join(out) + "\n"


def parse_points(text: str) -> np.ndarray:
    """Read ``i x y z`` lines with contiguous 1-based indices."""
    rows = {}
    last_no = 1
    for no, line in _data_lines(text):
        last_no = no
        parts = line.split()
        if len(parts) != 4:
            raise FileFormatError(no, f"expected 'i x y z', got {line!r}")
        try:
            i = int(parts[0])
            xyz = [float(p) for p in parts[1:]]
        except ValueError:
            raise FileFormatError(no, f"malformed point line {line!r}") from None
        if i in rows:
            raise FileFormatError(no, f"duplicate index {i}")
        rows[i] = xyz
    n = len(rows)
    if n == 0:
        raise FileFormatError(1, "no points in file")
    if sorted(rows) != list(range(1, n + 1)):
        raise FileFormatError(last_no, "point indices must be contiguous from 1")
    return np.array([rows[i] for i in range(1, n + 1)])


def format_points(points) -> str:
    points = np.asarray(points, dtype=float)
    return "\n".join(
        f"{i + 1} {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for i, p in enumerate(points)
    ) + "\n"


def ingest_coordinates(text: str, cutoff: float = 5.0) -> Instance:
    """Instance from a coordinate file: all chain-distance <= 3 edges plus
    every pair within ``cutoff`` angstroms, with distances taken from the
    coordinates."""
    pts = parse_points(text)
    n = len(pts)
    if n < 4:
        raise FileFormatError(1, f"need at least 4 points, got {n}")
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            d = float(np.linalg.norm(pts[u - 1] - pts[v - 1]))
            if v - u <= 3 or d <= cutoff:
                edges.append((u, v, d))
    return Instance(n, tuple(edges))
