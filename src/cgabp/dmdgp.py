"""Distance-geometry instances with a total vertex order: representation,
discretizability validation, internal-coordinate extraction, synthetic
instance generation and coordinate-file ingestion.

An ``Instance`` keeps its edges in one place, the (u, v, d) arrays it
was made from, and indexes them once: d(i-1, i), d(i-2, i) and d(i-3, i)
gathered into one (n, 3) array, which validation and the internal
coordinates both read, and the pruning edges (v - u >= 4) as lists in
CSR rows by v, which the search reads.  One rule, ``_first_bad_edge``,
judges its edges however it is made.  A file's edge lines are read by
one ``np.loadtxt`` call, and the generator and ingestion (one row of
pairs per vertex) build (u, v, d) arrays, so no Python loop runs over
edges or pairs.  The tuple ``Instance.edges`` is built from those arrays
on its first read: a parse, a solve, a verification or a formatted
realization makes no Python object per edge, so a request leaves the
cyclic garbage collector next to nothing to track.

``format_points`` keeps a memo of one entry, the bytes and text of the
call before it.  Leading rows bit-equal to that call's keep their lines
of its text, so a search's realizations, which come depth first and
share the points above the vertex where their paths split, cost one
formatted row per tree node.  The text never depends on the memo.

File formats owned by this module (text, UTF-8, '#' starts a comment):

* instance file: first data line ``n m``, then m lines ``u v d`` with
  1-based ``u < v`` and a positive finite decimal distance;
* coordinate file: lines ``i x y z`` with contiguous 1-based indices;
* realization file: lines ``i x y z`` written with full float precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FileFormatError, InfeasibleInstanceError
from .geometry import lengths, matrix_place_next

GENERATOR_BOND_LENGTH = 1.526   # angstroms, conventional backbone value
GENERATOR_BOND_ANGLE = 1.91     # radians

_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("d", float)])


@dataclass(frozen=True)
class Instance:
    """Weighted graph over totally ordered vertices 1..n with exact distances.

    ``edges`` is the tuple of (u, v, d) in input order, as int, int and
    float.  The instance keeps the edges as the arrays of ``edge_arrays``
    and builds that tuple on the first read of ``edges`` (``==``, ``hash``
    and ``repr`` read it), then keeps it.  From the arrays it indexes the
    clique distances of ``clique_distances``, gathered in one scatter, and
    the pruning edges (v - u >= 4) of ``pruning_lists``, in CSR rows by v,
    input order within a row.  Every edge must satisfy 1 <= u < v <= n,
    appear once and have a positive finite distance: the first in input
    order that does not raises ValueError, with the reason
    ``_first_bad_edge`` gives it.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    _arrays: tuple = field(init=False, repr=False, compare=False)
    _clique: np.ndarray = field(init=False, repr=False, compare=False)
    _far_lists: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.edges:
            u, v, d = (np.array(col) for col in zip(*self.edges))
            if u.dtype.kind not in "iu" or v.dtype.kind not in "iu":
                raise ValueError("edge endpoints must be integers")
            u, v, d = u.astype(np.int64), v.astype(np.int64), d.astype(float)
        else:
            u = v = np.empty(0, dtype=np.int64)
            d = np.empty(0)
        object.__delattr__(self, "edges")   # read back from the arrays, as int, int, float
        self._index(u, v, d)

    def __getattr__(self, name):
        """Build ``edges`` from the edge arrays the first time it is read
        (only a missing attribute gets here); keep it from then on."""
        if name != "edges":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        edges = tuple(zip(*(col.tolist() for col in self._arrays)))
        object.__setattr__(self, "edges", edges)
        return edges

    @classmethod
    def _from_arrays(cls, n: int, u: np.ndarray, v: np.ndarray, d: np.ndarray) -> "Instance":
        """The instance with edges (u[k], v[k], d[k]), from integer and float
        arrays, without going through Python tuples on the way in."""
        inst = cls.__new__(cls)
        object.__setattr__(inst, "n", n)
        inst._index(u, v, d)
        return inst

    def __reduce__(self):
        """Copies and pickles are rebuilt, checked and read-only, from the arrays."""
        return Instance._from_arrays, (self.n, *self._arrays)

    def _index(self, u, v, d):
        n = self.n
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        bad = _first_bad_edge(n, u, v, d)
        if bad is not None:
            raise ValueError(bad[1])
        gap = v - u
        near = gap <= 3
        clique = np.empty(3 * n)
        clique.fill(np.nan)
        clique[(3 * v + gap - 4)[near]] = d[near]   # entry 3 (v - 1) + gap - 1 is d(v - gap, v)
        clique = clique.reshape(n, 3)
        clique.flags.writeable = False
        far = (~near).nonzero()[0]
        far = far[v[far].argsort(kind="stable")]
        rows = [0] + np.bincount(v[far], minlength=n + 1).cumsum().tolist()
        for col in (u, v, d):
            col.flags.writeable = False
        for name, value in (
                ("_arrays", (u, v, d)),
                ("_clique", clique),
                ("_far_lists", (rows, (u[far] - 1).tolist(), d[far].tolist()))):
            object.__setattr__(self, name, value)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only arrays of the 1-based u, of v and of d of every edge,
        in input order: the arrays the instance was made from."""
        return self._arrays

    def pruning_lists(self) -> tuple[list, list, list]:
        """The pruning edges (u, v) with v - u >= 4, the only ones that can
        prune a placement of v, as Python lists: the edges of v are entries
        ``rows[v]`` to ``rows[v + 1] - 1`` of the lists of 0-based u and of
        d, in input order.  A loop over a few of them needs no NumPy call."""
        return self._far_lists

    def clique_distances(self) -> np.ndarray:
        """Read-only (n, 3) array: row i - 1 holds d(i-1, i), d(i-2, i) and
        d(i-3, i), NaN where that edge is missing or i - k < 1."""
        return self._clique


def _first_bad_edge(n, u, v, d) -> tuple[int, str] | None:
    """(index, reason) of the first edge, in input order, that is out of
    range, repeats an earlier edge or has no positive finite distance, or
    None.  A sort of the keys u (n + 1) + v tells whether any repeats."""
    outside = (u < 1) | (u >= v) | (v > n)
    bad = outside | ~((d > 0.0) & (d < math.inf))
    key = u * (n + 1) + v
    ordered = np.sort(key)
    if not (bad.any() or (ordered[1:] == ordered[:-1]).any()):
        return None
    repeat = np.ones(len(key), dtype=bool)
    repeat[np.unique(key, return_index=True)[1]] = False   # all but each key's first edge
    k = int((bad | repeat).argmax())
    edge, dk = f"edge ({u[k]},{v[k]})", float(d[k])
    if outside[k]:
        return k, f"{edge} violates 1 <= u < v <= n = {n}"
    if repeat[k]:
        return k, f"duplicate {edge}"
    return k, f"{edge} has {'non-positive' if dk <= 0.0 else 'non-finite'} distance {dk}"


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
    d(v, v+2) < d(v, v+1) + d(v+1, v+2); a triangle with a missing edge is
    reported as missing only.  Both read ``inst.clique_distances()``.
    """
    dist = inst.clique_distances()
    row, col = np.isnan(dist).nonzero()   # row i - 1, column k - 1 of d(i-k, i)
    missing = tuple(sorted((i - k, i) for i, k in zip((row + 1).tolist(), (col + 1).tolist())
                           if i > k))
    # NaN compares False, so a triangle with a missing edge is skipped
    violations = (dist[2:, 1] >= dist[1:-1, 0] + dist[2:, 0]).nonzero()[0] + 1
    return ValidationReport(not missing and not violations.size, missing,
                            tuple(violations.tolist()))


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
    and raises InfeasibleInstanceError; so does a NaN cosine, which
    distances whose squares overflow give.
    """
    dist = inst.clique_distances()
    d1, d2, d3 = dist[1:, 0], dist[2:, 1], dist[3:, 2]
    sq1, sq2, sq3 = d1 * d1, d2 * d2, d3 * d3
    dots = 0.5 * (sq2 - sq1[:-1] - sq1[1:])          # b_k . b_(k+1)
    cos_theta = -dots / (d1[:-1] * d1[1:])
    flat = ~(np.abs(cos_theta) < 1.0)   # a NaN cosine, from an overflow, fails too
    if flat.any():
        v = int(flat.argmax()) + 1
        raise InfeasibleInstanceError(f"triangle {(v, v + 1, v + 2)} admits no embedding")
    cross2 = sq1[:-1] * sq1[1:] * (1.0 - cos_theta) * (1.0 + cos_theta)  # |b_k x b_(k+1)|^2
    g11, g22, g33, g12, g23 = sq1[:-2], sq1[1:-1], sq1[2:], dots[:-1], dots[1:]
    g13 = 0.5 * (sq3 - g11 - g22 - g33) - g12 - g23
    norms = np.sqrt(cross2[:-1] * cross2[1:])        # |n1| |n2|
    raw = (g12 * g23 - g13 * g22) / norms
    cosines = np.minimum(np.maximum(raw, -1.0), 1.0)   # np.clip, without its wrapper's cost
    # d(i-3, i)^2 = g11 + g22 + g33 + 2 (g12 + g23 + b1.b3), b1.b3 = (g12 g23 - n1.n2) / g22
    placed = np.sqrt(np.maximum(sq3 + 2.0 * norms * (raw - cosines) / g22, 0.0))
    return InternalCoords(inst.n, d1, np.arccos(cos_theta), cosines, np.abs(placed - d3))


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
    # each 0-based pair (u, v) as the key u n + v; sorted keys sort by (u, v)
    u = np.repeat(np.arange(n), 3)
    v = u + np.tile((1, 2, 3), n)
    keys = (u * n + v)[v < n]                                        # chain distance <= 3
    k = int(round(extra_edge_fraction * ((n - 4) * (n - 3) // 2)))  # pairs with v - u >= 4
    if k:
        far = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 4))  # those, in key order
        keys = np.sort(np.concatenate((keys, far[rng.choice(far.size, size=k, replace=False)])))
    u, v = np.divmod(keys, n)
    return Instance._from_arrays(n, u + 1, v + 1, lengths(pts[u] - pts[v])), pts


# -- text formats -------------------------------------------------------------


def _data_lines(lines, first_no: int = 1):
    """(line number, content) of each line that is not blank once its
    comment is cut off."""
    for no, raw in enumerate(lines, start=first_no):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def parse_instance(text: str) -> Instance:
    """Instance from the text of an instance file.

    The header is read in Python and the edge lines in one ``np.loadtxt``
    call.  Only when that call, the edge count or the instance's checks
    reject the body is FileFormatError raised at the first bad line: the
    line of the edge ``_first_bad_edge`` picks, unless ``np.loadtxt``
    rejects a line above it on its own; else, for a wrong count, the last.
    """
    lines = text.splitlines()
    head = next(_data_lines(lines), None)
    if head is None:
        raise FileFormatError(1, "empty instance file")
    no, line = head
    parts = line.split()
    if len(parts) != 2:
        raise FileFormatError(no, f"expected 'n m', got {line!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise FileFormatError(no, f"expected integers 'n m', got {line!r}") from None
    rows, stop = None, None
    try:
        # a last row of its own keeps loadtxt from warning about a body with no data
        rows = np.loadtxt(lines[no:] + ["1 2 1"], dtype=_EDGE_ROW, comments="#", ndmin=1)[:-1]
        if len(rows) == m:
            return Instance._from_arrays(n, rows["u"], rows["v"], rows["d"])
        problem = f"header promises {m} edges, found {len(rows)}"
    except ValueError as exc:
        problem = str(exc)
    body = list(_data_lines(lines[no:], no + 1))   # loadtxt reads these as its rows
    if rows is None:   # read the lines one by one, up to the first loadtxt rejects
        read = []
        for line_no, line in body:
            try:
                read.append(np.loadtxt([line], dtype=_EDGE_ROW, ndmin=1).item())
            except ValueError:
                stop = FileFormatError(line_no, f"expected 'u v d', got {line!r}")
                break
        rows = np.array(read, dtype=_EDGE_ROW)
    bad = _first_bad_edge(n, rows["u"], rows["v"], rows["d"])
    if bad is not None:
        raise FileFormatError(body[bad[0]][0], bad[1])
    if stop is not None:
        raise stop
    if len(rows) != m:
        no = body[-1][0] if body else 1
        problem = f"header promises {m} edges, found {len(rows)}"
    raise FileFormatError(no, problem)


def format_instance(inst: Instance) -> str:
    out = [f"{inst.n} {len(inst.edges)}"]
    out += [f"{u} {v} {d:.17g}" for u, v, d in inst.edges]
    return "\n".join(out) + "\n"


def parse_points(text: str) -> np.ndarray:
    """Read ``i x y z`` lines with contiguous 1-based indices."""
    rows = {}
    last_no = 1
    for no, line in _data_lines(text.splitlines()):
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


_ROW_BYTES = 3 * 8
_last = (b"", "")   # (points.tobytes(), text) of the last call, replaced as one pair


def format_points(points) -> str:
    """``i x y z`` lines for the rows of an (n, 3) array, each coordinate
    in 17 significant digits, so that it reads back as the same float.

    A one-entry memo holds the bytes and the text of the last call.
    The leading rows whose bytes equal the last call's keep their lines of
    its text, and only the rows after them are formatted: consecutive
    realizations of a search share the points above the vertex where
    their branch paths split.  Bytes, not floats, are compared, so -0.0
    never takes the text of 0.0, and the text is the same whatever was
    formatted before.
    """
    global _last
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array of points, got shape {points.shape}")
    n = len(points)
    raw = points.tobytes()
    last_raw, last_text = _last
    if raw == last_raw:
        return last_text
    if raw[:_ROW_BYTES] != last_raw[:_ROW_BYTES]:
        text = _points_template(n) % tuple(points.ravel().tolist())
    else:
        # binary search for k, the number of leading rows whose bytes are equal
        k, hi = 1, min(n, len(last_raw) // _ROW_BYTES)
        while k < hi:
            mid = (k + hi + 1) // 2
            if raw[:_ROW_BYTES * mid] == last_raw[:_ROW_BYTES * mid]:
                k = mid
            else:
                hi = mid - 1
        text = last_text[:_line_start(last_text, k)]
        if k < n:
            template = _points_template(n)
            text += template[_line_start(template, k):] % tuple(points[k:].ravel().tolist())
    _last = (raw, text)
    return text


def _line_start(text: str, k: int) -> int:
    """Where line k + 1 of a ``format_points`` text or template starts, for
    k >= 1 (its length if it has k lines): each line starts with its index."""
    end = text.find(f"\n{k + 1} ")
    return len(text) if end < 0 else end + 1


@functools.lru_cache(maxsize=16)
def _points_template(n: int) -> str:
    """The text of ``format_points`` for n points, with its indices filled
    in and a ``%.17g`` for each coordinate."""
    return "".join([f"{i} %.17g %.17g %.17g\n" for i in range(1, n + 1)])


def ingest_coordinates(text: str, cutoff: float = 5.0) -> Instance:
    """Instance from a coordinate file: all chain-distance <= 3 edges plus
    every pair within ``cutoff`` angstroms, with distances taken from the
    coordinates."""
    pts = parse_points(text)
    n = len(pts)
    if n < 4:
        raise FileFormatError(1, f"need at least 4 points, got {n}")
    gaps, ds = [], []
    for u in range(n - 1):   # one row of pairs (u, v > u) at a time, to hold only the kept ones
        d = lengths(pts[u] - pts[u + 1:])
        keep = d <= cutoff
        keep[:3] = True       # chain distance <= 3
        gaps.append(keep.nonzero()[0] + 1)
        ds.append(d[keep])
    u = np.repeat(np.arange(1, n), [len(g) for g in gaps])
    return Instance._from_arrays(n, u, u + np.concatenate(gaps), np.concatenate(ds))
