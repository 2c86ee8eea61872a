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
from .geometry import matrix_place_next

GENERATOR_BOND_LENGTH = 1.526   # angstroms, conventional backbone value
GENERATOR_BOND_ANGLE = 1.91     # radians


@dataclass(frozen=True)
class Instance:
    """Weighted graph over totally ordered vertices 1..n with exact distances."""

    n: int
    edges: tuple[tuple[int, int, float], ...]
    _dist: dict = field(init=False, repr=False, compare=False)
    _pruning: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        dist: dict[tuple[int, int], float] = {}
        far: list[list[tuple[int, float]]] = [[] for _ in range(self.n + 1)]
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
            if v - u >= 4:
                far[v].append((u - 1, d))
            norm.append((u, v, d))
        none = (np.empty(0, dtype=np.intp), np.empty(0))
        pruning = tuple((np.array([u for u, _ in e], dtype=np.intp), np.array([d for _, d in e]))
                        if e else none for e in far)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_dist", dist)
        object.__setattr__(self, "_pruning", pruning)

    def distance(self, u: int, v: int) -> float | None:
        if u > v:
            u, v = v, u
        return self._dist.get((u, v))

    def pruning_edges(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """The edges (u, v) with v - u >= 4, the only ones that can prune a
        placement of v, as arrays of 0-based u and of d."""
        return self._pruning[v]


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
    ``clique_miss[i-4]`` is how far, in angstroms, vertex i placed at that
    cosine misses d(i-3, i); it is 0 unless the cosine had to be clipped
    to [-1, 1].
    """

    n: int
    bond_lengths: np.ndarray
    bond_angles: np.ndarray
    dihedral_cos: np.ndarray
    clique_miss: np.ndarray


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


def internal_coordinates(inst: Instance) -> InternalCoords:
    """Bond lengths, bond angles, unsigned torsions and 4-clique misses, in
    closed form from the arrays of d(i-1, i), d(i-2, i) and d(i-3, i).

    Those distances give the Gram entries of the bond vectors b_k: bond
    angles follow by the law of cosines, and for each consecutive 4-clique
    with normals n1 = b1 x b2 and n2 = b2 x b3 the torsion cosine is
    n1.n2 / (|n1| |n2|), clipped to [-1, 1].  Clipping moves b1.b3, and
    with it the placed d(i-3, i); the clique's miss is that move, in
    angstroms, for the caller to judge against its tolerance.  A triangle
    with |cos(theta)| >= 1 is collinear or worse, fixes no torsion frame,
    and raises InfeasibleInstanceError.
    """
    n, dist = inst.n, inst.distance
    d1, d2, d3 = (np.array([dist(i - k, i) for i in range(k + 1, n + 1)]) for k in (1, 2, 3))
    sq1, sq2, sq3 = d1 * d1, d2 * d2, d3 * d3
    dots = 0.5 * (sq2 - sq1[:-1] - sq1[1:])          # b_k . b_(k+1)
    cos_theta = -dots / (d1[:-1] * d1[1:])
    bad = np.flatnonzero(np.abs(cos_theta) >= 1.0) + 1
    if bad.size:
        triangle = tuple(range(bad[0], bad[0] + 3))
        raise InfeasibleInstanceError(f"triangle {triangle} admits no embedding")
    cross2 = sq1[:-1] * sq1[1:] * (1.0 - cos_theta) * (1.0 + cos_theta)  # |b_k x b_(k+1)|^2
    g11, g22, g33, g12, g23 = sq1[:-2], sq1[1:-1], sq1[2:], dots[:-1], dots[1:]
    g13 = 0.5 * (sq3 - g11 - g22 - g33) - g12 - g23
    norms = np.sqrt(cross2[:-1] * cross2[1:])        # |n1| |n2|
    raw = (g12 * g23 - g13 * g22) / norms
    cosines = np.clip(raw, -1.0, 1.0)
    # d(i-3, i)^2 = g11 + g22 + g33 + 2 (g12 + g23 + b1.b3), b1.b3 = (g12 g23 - n1.n2) / g22
    placed = np.sqrt(np.maximum(sq3 + 2.0 * norms * (raw - cosines) / g22, 0.0))
    return InternalCoords(n, d1, np.arccos(cos_theta), cosines, np.abs(placed - d3))


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
    rows = np.column_stack((np.arange(1, len(points) + 1), points))
    return ("%d %.17g %.17g %.17g\n" * len(points)) % tuple(rows.ravel().tolist())


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
