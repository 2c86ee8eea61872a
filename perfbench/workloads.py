"""Seeded workloads: the instances a run sends, the request a user makes,
and the correctness gate each request's output must pass.

Every workload builds a small pool of instances from the run seed and
sends them round-robin, so the per-run medians mix several instances and
do not hang on one lucky or unlucky draw.  Gates use plain NumPy on the
returned arrays and text, never the program's own verifier, so a broken
verifier cannot pass its own output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from cgabp import dmdgp, solver

EPS = 1e-4                # pruning tolerance sent with every request, angstroms
BACKBONE_CUTOFF = 5.0     # ingestion radius for the backbone-like instances
# Full distance matrix vs ground truth, angstroms: loose enough for the
# near-duplicate a nearly planar torsion adds (about EPS off the truth),
# tight enough that a conformation which is not congruent to the truth
# (off by tenths of an angstrom or more) fails.
BACKBONE_DIST_TOL = 100 * EPS
BACKBONE_POOL = 12
# generate_instance seeds of the n=200 chains a backbone pool is drawn from;
# each one solved to solutions congruent to its ground truth when this list
# was made.  Random chain seeds also hit two known solver defects (see
# README.md), which this list leaves out so the pool does not change when
# they are fixed.
BACKBONE_CHAIN_SEEDS = tuple(range(64))
SYMMETRIC_SOLUTIONS = 16  # plain-BP count each symmetric instance must have


@dataclass(frozen=True)
class Case:
    """One instance of a workload's pool."""

    text: str                       # instance file contents: all the program receives
    n: int
    u: np.ndarray                   # 0-based edge endpoints and exact distances,
    v: np.ndarray                   # for the independent edge check
    d: np.ndarray
    truth_dist: np.ndarray | None   # ground-truth distance matrix
    expected: dict | None           # branch path -> realization from a set-up solve


def _case(inst, truth_dist=None, expected=None) -> Case:
    edges = np.array(inst.edges)
    return Case(dmdgp.format_instance(inst), inst.n,
                edges[:, 0].astype(int) - 1, edges[:, 1].astype(int) - 1, edges[:, 2],
                truth_dist, expected)


def _distance_matrix(points) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def request(case: Case, mode: str, use_symmetry: bool):
    """One user solve: parse the instance text, solve, format every realization."""
    inst = dmdgp.parse_instance(case.text)
    sols = solver.solve(inst, solver.SolveOptions(eps=EPS, mode=mode, use_symmetry=use_symmetry))
    return sols, [dmdgp.format_points(r) for r, _ in sols]


def max_edge_violation(case: Case, r: np.ndarray) -> float:
    diff = r[case.u] - r[case.v]
    return float(np.max(np.abs(np.sqrt((diff * diff).sum(axis=1)) - case.d)))


def _common_gate(case: Case, sols, texts) -> str | None:
    """Checks every workload shares: shape, edge distances, the text form
    round-trips to the same floats, and no branch path repeats."""
    if len(texts) != len(sols):
        return "gate:text_count"
    for (r, _), text in zip(sols, texts):
        r = np.asarray(r)
        if r.shape != (case.n, 3) or not np.all(np.isfinite(r)):
            return "gate:shape"
        if max_edge_violation(case, r) > EPS:
            return "gate:edge_violation"
        try:
            rows = np.array(text.split(), dtype=float).reshape(case.n, 4)
        except ValueError:
            return "gate:format_parse"
        if not (np.array_equal(rows[:, 0], np.arange(1, case.n + 1))
                and np.array_equal(rows[:, 1:], r)):
            return "gate:format_roundtrip"
    if len({str(path) for _, path in sols}) != len(sols):
        return "gate:duplicate_path"
    return None


def _same_solutions(case, sols):
    """Paths equal to the set-up solve's, coordinates within eps."""
    got = {str(path): r for r, path in sols}
    if got.keys() != case.expected.keys():
        return "gate:paths"
    for path, r in got.items():
        if np.max(np.abs(np.asarray(r) - case.expected[path])) > EPS:
            return "gate:coords"
    return None


def _gate_enum(case, sols, texts):
    if len(sols) != 2 ** (case.n - 3):
        return "gate:enum_count"
    return _common_gate(case, sols, texts)


def _gate_backbone(case, sols, texts):
    if not sols:
        return "gate:no_solution"
    for r, _ in sols:
        if np.max(np.abs(_distance_matrix(np.asarray(r)) - case.truth_dist)) > BACKBONE_DIST_TOL:
            return "gate:distance_matrix"
    return _same_solutions(case, sols) or _common_gate(case, sols, texts)


def _gate_symmetric(case, sols, texts):
    return _same_solutions(case, sols) or _common_gate(case, sols, texts)


def _gate_first(case, sols, texts):
    if len(sols) != 1:
        return "gate:first_count"
    return _common_gate(case, sols, texts)


def _seeds(seed: int, count: int):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def _build_enum(seed):
    return [_case(dmdgp.generate_instance(11, s, 0.0)[0]) for s in _seeds(seed, 4)], Counter()


def _build_backbone(seed):
    """BACKBONE_POOL n=200 chains drawn from BACKBONE_CHAIN_SEEDS, each sent
    once here as a request whose output becomes the expected output of the
    timed requests.

    Every chain of the list solved and passed the gate at the commit that
    added this benchmark, so a chain that raises or fails the gate here is
    a regression: it is counted by reason, left out of the pool, and fails
    the run.  The pool of a seed is the same at every commit.
    """
    cases, failures = [], Counter()
    picks = np.random.default_rng(seed).choice(len(BACKBONE_CHAIN_SEEDS), BACKBONE_POOL,
                                               replace=False)
    for k in picks:
        _, truth = dmdgp.generate_instance(200, BACKBONE_CHAIN_SEEDS[k], 0.0)
        inst = dmdgp.ingest_coordinates(dmdgp.format_points(truth), cutoff=BACKBONE_CUTOFF)
        case = _case(inst, truth_dist=_distance_matrix(truth))
        try:
            sols, texts = request(case, "all", False)
            case = replace(case, expected={str(path): r for r, path in sols})
            reason = _gate_backbone(case, sols, texts)
        except Exception as exc:
            reason = type(exc).__name__
        if reason:
            failures[f"setup:{reason}"] += 1
        else:
            cases.append(case)
    return cases, failures


def _build_symmetric(seed):
    """Eight n=10 instances whose one long-range edge spans six vertices.

    Such an edge fixes the relative torsion signs of four vertices up to a
    global flip, so 2 of their 16 sign patterns survive and exactly 16 of
    the 128 paths are feasible: every run scans the same number of paths
    for the same yield.  Plain BP must confirm the count.
    """
    cases = []
    rng = np.random.default_rng(seed)
    while len(cases) < 8:
        inst, _ = dmdgp.generate_instance(10, int(rng.integers(0, 2**31)), 0.07)
        if [v - u for u, v, _ in inst.edges if v - u > 3] != [6]:
            continue
        plain = solver.solve(inst, solver.SolveOptions(eps=EPS, mode="all"))
        if len(plain) != SYMMETRIC_SOLUTIONS:
            raise RuntimeError(f"plain BP found {len(plain)} of 128 paths, "
                               f"expected {SYMMETRIC_SOLUTIONS}")
        cases.append(_case(inst, expected={str(path): r for r, path in plain}))
    return cases, Counter()


def _build_long_chain(seed):
    return [_case(dmdgp.generate_instance(2000, s, 0.0)[0]) for s in _seeds(seed, 2)], Counter()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    use_symmetry: bool
    build: object       # seed -> (list[Case], Counter of set-up requests failed, by reason)
    gate: object        # (case, sols, texts) -> failure reason or None


WORKLOADS = {w.name: w for w in (
    Workload("enum", "unpruned n=11 tree (256 solutions): every node a versor placement, "
             "every leaf a verify and a formatted realization",
             "all", False, _build_enum, _gate_enum),
    Workload("backbone", "n=200 chain ingested at a 5 A cutoff: deep narrow tree where "
             "about half the candidates are pruned and 2 leaves remain",
             "all", False, _build_backbone, _gate_backbone),
    Workload("symmetric", "n=10, 16 of 128 paths feasible, use_symmetry: one DFS descent "
             "then a reflect-and-verify scan that bypasses placement",
             "all", True, _build_symmetric, _gate_symmetric),
    Workload("long_chain", "n=2000 first solution: the only chain deeper than a few "
             "hundred vertices; every request fails at the seed commit",
             "first", False, _build_long_chain, _gate_first),
)}
