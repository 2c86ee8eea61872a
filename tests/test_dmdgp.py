"""Instance model tests: validation, internal coordinates, generation,
ingestion and the text formats."""

import copy
import dataclasses
import gc
import math
import pickle
import random
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgabp.dmdgp import (GENERATOR_BOND_ANGLE, GENERATOR_BOND_LENGTH, Instance,
                         InternalCoords, ValidationReport, format_instance, format_points,
                         generate_instance, ingest_coordinates, internal_coordinates,
                         parse_instance, parse_points, validate_instance)
from cgabp.errors import FileFormatError, InfeasibleInstanceError
from cgabp.geometry import bond_angle, dihedral_angle, matrix_place_next, verify_realization
from cgabp.solver import SolveOptions, initialize_first_three, solve


def reference_points_text(points):
    """format_points without template or memo: one column_stack, and an
    index column, per call."""
    points = np.asarray(points, dtype=float)
    table = np.column_stack((np.arange(1, len(points) + 1), points))
    return ("%d %.17g %.17g %.17g\n" * len(points)) % tuple(table.ravel().tolist())


COORDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308]))


def point_rows(count):
    """(count, 3) float arrays of any coordinates."""
    return st.lists(st.tuples(COORDS, COORDS, COORDS), min_size=count, max_size=count).map(
        lambda rows: np.array(rows, dtype=float).reshape(count, 3))


def float_with_bits(bits):
    return float(np.array([bits], dtype=np.uint64).view(float)[0])


def quad_instance(pts):
    """Complete 4-vertex instance with distances taken from coordinates."""
    pts = np.asarray(pts, dtype=float)
    edges = tuple(
        (u + 1, v + 1, float(np.linalg.norm(pts[u] - pts[v])))
        for u in range(4) for v in range(u + 1, 4)
    )
    return Instance(4, edges)


class TestInstance:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="1 <= u < v"):
            Instance(4, ((1, 5, 1.0),))
        with pytest.raises(ValueError, match="1 <= u < v"):
            Instance(4, ((3, 2, 1.0),))
        with pytest.raises(ValueError, match="duplicate"):
            Instance(4, ((1, 2, 1.0), (1, 2, 1.0)))
        with pytest.raises(ValueError, match="non-positive"):
            Instance(4, ((1, 2, 0.0),))
        for d in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                Instance(4, ((1, 2, d),))
        with pytest.raises(ValueError, match="integers"):
            Instance(4, ((1.0, 2, 1.0),))

    def test_first_bad_edge_in_input_order_is_reported(self):
        cases = [(((1, 3, 1.0), (2, 3, -1.0), (1, 3, 1.0), (1, 9, 1.0)),
                  "edge (2,3) has non-positive distance -1.0"),
                 (((1, 3, 1.0), (1, 3, math.nan), (5, 2, 1.0)), "duplicate edge (1,3)"),
                 (((0, 6, 1.0), (1, 1, 1.0)), "edge (0,6) violates"),
                 (((1, 2, 1.0), (2, 4, math.inf), (2, 4, 1.0)), "edge (2,4) has non-finite")]
        for edges, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                Instance(4, edges)

    def test_edges_keep_input_order_and_types(self):
        edges = ((2, 3, 1.5), (1, 2, 1), (1, 4, 2.0))
        inst = Instance(4, edges)
        assert inst.edges == ((2, 3, 1.5), (1, 2, 1.0), (1, 4, 2.0))
        assert all(type(u) is int and type(v) is int and type(d) is float
                   for u, v, d in inst.edges)
        assert Instance(4, ()).edges == ()

    @pytest.mark.parametrize("make", ["init", "parse", "generate", "ingest"])
    def test_edges_are_read_back_from_the_arrays(self, make):
        _, truth = generate_instance(12, 3, 0.0)
        gen, gen_truth = generate_instance(12, 3, 0.3)
        # each instance with the tuple its edges must read as: int, int and
        # float in input order
        given = ((2, 3, 1.5), (1, 2, 1), (np.int32(3), np.uint8(4), np.float32(0.5)),
                 (1, 3, 2.0), (2, 4, 1.75), (1, 4, 3))
        inst, edges = {
            "init": lambda: (Instance(4, given),
                             ((2, 3, 1.5), (1, 2, 1.0), (3, 4, 0.5), (1, 3, 2.0), (2, 4, 1.75),
                              (1, 4, 3.0))),
            "parse": lambda: (parse_instance("4 3\n3 4 0.25\n1 2 1e0\n# c\n2 3 2\n"),
                              ((3, 4, 0.25), (1, 2, 1.0), (2, 3, 2.0))),
            "generate": lambda: (gen, reference_generated_edges(12, 3, 0.3, gen_truth)),
            "ingest": lambda: (ingest_coordinates(format_points(truth), cutoff=4.0),
                               reference_ingested_edges(truth, 4.0)),
        }[make]()
        n = inst.n
        shallow, deep, pickled = copy.copy(inst), copy.deepcopy(inst), pickle.loads(
            pickle.dumps(inst))   # copied before the tuple is first built
        assert "edges" not in vars(inst)
        u, v, d = inst.edge_arrays()
        assert bits(tuple(zip(u.tolist(), v.tolist(), d.tolist()))) == bits(edges)
        assert not any(col.flags.writeable for col in (u, v, d))
        assert "edges" not in vars(inst)
        assert bits(inst.edges) == bits(edges)
        assert all(type(u) is int and type(v) is int and type(d) is float
                   for u, v, d in inst.edges)
        assert inst.edges is inst.edges
        assert repr(inst) == f"Instance(n={n}, edges={edges!r})"
        assert hash(inst) == hash((n, edges))
        for other in (shallow, deep, pickled, copy.deepcopy(inst),
                      pickle.loads(pickle.dumps(inst)), Instance(n, edges)):
            assert other == inst and hash(other) == hash(inst) and other.edges == edges
            assert np.array_equal(other.clique_distances(), inst.clique_distances(),
                                  equal_nan=True)
        assert inst != Instance(n, edges[:-1]) and inst != (n, edges)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.edges = ()
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            inst.missing

    def test_parse_and_solve_make_no_object_per_edge(self):
        # a tuple per edge would be tracked by the cyclic garbage collector,
        # and a request of a few thousand edges would trigger full collections
        def tracked_by_parse(n):
            text = format_instance(generate_instance(n, 1, 0.0)[0])
            parse_instance(text)
            gc.collect()
            gc.disable()
            try:
                before = len(gc.get_objects())
                inst = parse_instance(text)
                return len(gc.get_objects()) - before, inst
            finally:
                gc.enable()

        (small, _), (large, inst) = tracked_by_parse(200), tracked_by_parse(2000)
        assert small == large < 20
        sols = solve(inst, SolveOptions(mode="first"))
        format_points(sols[0][0])
        assert verify_realization(inst, sols[0][0])[0] <= 1e-4
        assert "edges" not in vars(inst)

    def test_edge_arrays_and_pruning_lists(self):
        edges = ((1, 2, 1.0), (2, 3, 2.0), (2, 6, 4.0), (1, 5, 3.0), (1, 6, 5.0))
        inst = Instance(6, edges)
        u, v, d = inst.edge_arrays()
        assert (u.tolist(), v.tolist(), d.tolist()) == tuple(map(list, zip(*edges)))
        assert u.dtype == v.dtype == np.int64 and d.dtype == float
        for col in (u, v, d):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 0
        assert inst.edge_arrays()[0] is u
        # only edges with v - u >= 4 are pruning edges, in rows by v, u 0-based
        rows, far_u, far_d = inst.pruning_lists()
        assert rows == [0, 0, 0, 0, 0, 0, 1, 3]
        assert far_u == [0, 1, 0] and far_d == [3.0, 4.0, 5.0]
        empty = Instance(4, ()).edge_arrays()
        assert [col.size for col in empty] == [0, 0, 0]

    def test_clique_distances(self):
        inst = Instance(5, ((1, 2, 1.0), (3, 5, 2.0), (2, 5, 3.0), (1, 5, 4.0)))
        dist = inst.clique_distances()
        nan = math.nan
        np.testing.assert_array_equal(dist, [[nan, nan, nan], [1.0, nan, nan], [nan, nan, nan],
                                             [nan, nan, nan], [nan, 2.0, 3.0]])
        assert not dist.flags.writeable


class TestValidate:
    def test_missing_clique_edge(self):
        inst = Instance(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 1.5), (2, 4, 1.5)))
        report = validate_instance(inst)
        assert not report.is_dmdgp
        assert report.missing_clique_edges == ((1, 4),)
        assert report.triangle_violations == ()

    def test_non_strict_triangle_flagged(self):
        # equality d13 = d12 + d23 violates strictness
        inst = Instance(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 2.0),
                            (2, 4, 1.5), (1, 4, 2.5)))
        report = validate_instance(inst)
        assert 1 in report.triangle_violations
        assert not report.is_dmdgp

    def test_generated_instances_validate(self):
        for seed in range(3):
            inst, _ = generate_instance(8, seed, 0.4)
            assert validate_instance(inst).is_dmdgp


class TestInternalCoordinates:
    def test_right_triangle_angle(self):
        pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0.6, 0.7, 0.9)]
        coords = internal_coordinates(quad_instance(pts))
        assert abs(coords.bond_angles[0] - math.pi / 2) <= 1e-12

    def test_equilateral_angle(self):
        pts = [(0, 0, 0), (1, 0, 0), (0.5, math.sqrt(3) / 2, 0), (0.5, 0.3, 0.8)]
        coords = internal_coordinates(quad_instance(pts))
        assert abs(coords.bond_angles[0] - math.pi / 3) <= 1e-12

    def test_dihedral_round_trip(self):
        a, b, c = np.array([0.2, 1.1, 0.0]), np.array([0.0, 0.0, 0.0]), np.array([1.4, 0.1, 0.0])
        x = matrix_place_next(a, b, c, 1.2, 1.0, 1.3)[0]
        coords = internal_coordinates(quad_instance([a, b, c, x]))
        assert abs(coords.dihedral_cos[0] - math.cos(1.0)) <= 1e-9

    def test_infeasible_quadruplet(self):
        # d(1, 4) is far beyond any torsion's reach: the clamped placement
        # misses it by more than any tolerance, and solve returns nothing
        inst = Instance(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 1.2),
                            (2, 4, 1.2), (1, 4, 10.0)))
        coords = internal_coordinates(inst)
        assert coords.dihedral_cos[0] == -1.0
        anchor = initialize_first_three(coords)
        x4 = matrix_place_next(*anchor, coords.bond_angles[1], math.pi, coords.bond_lengths[2])[0]
        placed = np.linalg.norm(x4 - anchor[0])
        assert abs(coords.clique_miss[0] - (10.0 - placed)) <= 1e-12
        assert coords.clique_miss[0] > 1.0
        assert solve(inst, SolveOptions(mode="all")) == []

    def test_clique_miss_is_zero_where_the_cosine_is_not_clipped(self):
        inst, _ = generate_instance(12, 31, 0.0)
        coords = internal_coordinates(inst)
        assert np.all(np.abs(coords.dihedral_cos) < 1.0)
        assert np.all(coords.clique_miss == 0.0)

    def test_generated_chain_reproduces_generator_constants(self):
        inst, truth = generate_instance(12, 31, 0.0)
        coords = internal_coordinates(inst)
        assert np.max(np.abs(coords.bond_lengths - GENERATOR_BOND_LENGTH)) <= 1e-9
        assert np.max(np.abs(coords.bond_angles - GENERATOR_BOND_ANGLE)) <= 1e-9
        for i in range(4, 13):
            measured = dihedral_angle(*(truth[i - 4:i]))
            assert abs(math.cos(measured) - coords.dihedral_cos[i - 4]) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(internal=st.lists(st.tuples(st.floats(0.2, math.pi - 0.2),
                                   st.floats(-math.pi, math.pi, exclude_min=True),
                                   st.floats(0.8, 2.5)), min_size=3, max_size=10),
       shift=st.tuples(*[st.floats(-1e3, 1e3)] * 3))
def test_closed_form_matches_coordinate_oracles(internal, shift):
    # a chain placed by the torsion-matrix oracle, moved away from the
    # origin and read back through its clique distances only
    (theta0, _, d0), (_, _, d1) = internal[:2]
    pts = [np.zeros(3), np.array([-d0, 0.0, 0.0])]
    pts.append(pts[1] + d1 * np.array([math.cos(theta0), math.sin(theta0), 0.0]))
    for theta, omega, d in internal[2:]:
        pts.append(matrix_place_next(pts[-3], pts[-2], pts[-1], theta, omega, d)[0])
    pts = np.array(pts) + np.array(shift)
    coords = internal_coordinates(ingest_coordinates(format_points(pts), cutoff=0))
    for i in range(3, len(pts) + 1):
        assert abs(coords.bond_angles[i - 3] - bond_angle(*pts[i - 3:i])) <= 1e-9
    for i in range(4, len(pts) + 1):
        oracle = math.cos(dihedral_angle(*pts[i - 4:i]))
        assert abs(coords.dihedral_cos[i - 4] - oracle) <= 1e-9


def reference_validate(inst):
    """validate_instance by per-pair lookups in a dict of the edges."""
    dist = {(u, v): d for u, v, d in inst.edges}
    missing = [(u, v) for u in range(1, inst.n + 1)
               for v in range(u + 1, min(u + 3, inst.n) + 1) if (u, v) not in dist]
    violations = []
    for v in range(1, inst.n - 1):
        d02, d01, d12 = dist.get((v, v + 2)), dist.get((v, v + 1)), dist.get((v + 1, v + 2))
        if None not in (d02, d01, d12) and d02 >= d01 + d12:
            violations.append(v)
    return ValidationReport(not missing and not violations, tuple(missing), tuple(violations))


def reference_internal_coordinates(inst):
    """internal_coordinates with d(i-k, i) looked up one pair at a time in a
    dict of the edges, and the same closed form."""
    n, dist = inst.n, {(u, v): d for u, v, d in inst.edges}
    d1, d2, d3 = (np.array([dist[(i - k, i)] for i in range(k + 1, n + 1)]) for k in (1, 2, 3))
    sq1, sq2, sq3 = d1 * d1, d2 * d2, d3 * d3
    dots = 0.5 * (sq2 - sq1[:-1] - sq1[1:])
    cos_theta = -dots / (d1[:-1] * d1[1:])
    bad = np.flatnonzero(np.abs(cos_theta) >= 1.0) + 1
    if bad.size:
        triangle = tuple(range(bad[0], bad[0] + 3))
        raise InfeasibleInstanceError(f"triangle {triangle} admits no embedding")
    cross2 = sq1[:-1] * sq1[1:] * (1.0 - cos_theta) * (1.0 + cos_theta)
    g11, g22, g33, g12, g23 = sq1[:-2], sq1[1:-1], sq1[2:], dots[:-1], dots[1:]
    g13 = 0.5 * (sq3 - g11 - g22 - g33) - g12 - g23
    norms = np.sqrt(cross2[:-1] * cross2[1:])
    raw = (g12 * g23 - g13 * g22) / norms
    cosines = np.clip(raw, -1.0, 1.0)
    placed = np.sqrt(np.maximum(sq3 + 2.0 * norms * (raw - cosines) / g22, 0.0))
    return InternalCoords(n, d1, np.arccos(cos_theta), cosines, np.abs(placed - d3))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**16), extra=st.floats(0.0, 0.3),
       ingest=st.booleans(), drop=st.floats(0.0, 0.2), flatten=st.floats(0.0, 0.2),
       shuffle=st.booleans())
def test_array_setup_matches_per_pair_reference(n, seed, extra, ingest, drop, flatten, shuffle):
    # generated or ingested chains, some clique edges deleted, some
    # triangles made non-strict (d(v, v+2) = d(v, v+1) + d(v+1, v+2)), in
    # input order or shuffled
    if n < 4:
        inst = Instance(n, tuple((u, v, 1.0) for u in range(1, n + 1) for v in range(u + 1, n + 1)))
    else:
        inst, truth = generate_instance(n, seed, extra)
        if ingest:
            inst = ingest_coordinates(format_points(truth), cutoff=5.0)
    rng = np.random.default_rng(seed)
    dist = {(u, v): d for u, v, d in inst.edges}
    for v in np.flatnonzero(rng.random(n) < flatten) + 1:
        if (v, v + 1) in dist and (v + 1, v + 2) in dist and (v, v + 2) in dist:
            dist[(v, v + 2)] = dist[(v, v + 1)] + dist[(v + 1, v + 2)]
    edges = [(u, v, d) for (u, v), d in dist.items() if v - u > 3 or rng.random() >= drop]
    if shuffle:
        edges = [edges[k] for k in rng.permutation(len(edges))]
    inst = Instance(n, tuple(edges))
    report = validate_instance(inst)
    assert report == reference_validate(inst)
    if report.missing_clique_edges:
        return
    try:
        expected = reference_internal_coordinates(inst)
    except InfeasibleInstanceError as exc:
        with pytest.raises(InfeasibleInstanceError, match=re.escape(str(exc))):
            internal_coordinates(inst)
        return
    got = internal_coordinates(inst)
    assert got.n == expected.n
    for name in ("bond_lengths", "bond_angles", "dihedral_cos", "clique_miss"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_array_setup_matches_reference_on_hand_made_instances():
    missing = Instance(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 1.5), (2, 4, 1.5)))
    flat = Instance(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 2.0), (2, 4, 1.5),
                        (1, 4, 2.5)))
    gaps = Instance(7, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 2.0), (5, 6, 1.5),
                        (1, 7, 2.5)))
    for inst in (missing, flat, gaps, Instance(6, ()), Instance(1, ())):
        assert validate_instance(inst) == reference_validate(inst)
    assert validate_instance(gaps).missing_clique_edges == (
        (1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (4, 5), (4, 6), (4, 7), (5, 7), (6, 7))
    assert validate_instance(gaps).triangle_violations == (1,)


def reference_generated_edges(n, seed, extra, pts):
    """generate_instance's edges built pair by pair from its truth ``pts``,
    with one ``np.linalg.norm`` per pair and a sort of the tuples."""
    rng = np.random.default_rng(seed)
    rng.uniform(-math.pi, math.pi, size=n - 3)   # the torsions are drawn first
    edges = [(u, v, float(np.linalg.norm(pts[u - 1] - pts[v - 1])))
             for u in range(1, n + 1) for v in range(u + 1, min(u + 3, n) + 1)]
    k = int(round(extra * ((n - 4) * (n - 3) // 2)))
    if k:
        remaining = [(u, v) for u in range(1, n + 1) for v in range(u + 4, n + 1)]
        for idx in sorted(rng.choice(len(remaining), size=k, replace=False)):
            u, v = remaining[idx]
            edges.append((u, v, float(np.linalg.norm(pts[u - 1] - pts[v - 1]))))
    return tuple(sorted(edges))


def reference_ingested_edges(pts, cutoff):
    """ingest_coordinates' edges built pair by pair, one ``np.linalg.norm``
    per pair."""
    n, edges = len(pts), []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            d = float(np.linalg.norm(pts[u - 1] - pts[v - 1]))
            if v - u <= 3 or d <= cutoff:
                edges.append((u, v, d))
    return tuple(edges)


def bits(edges):
    return [(u, v, np.float64(d).tobytes()) for u, v, d in edges]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 60), seed=st.integers(0, 2**63), extra=st.floats(0.0, 1.0))
def test_generated_edges_match_per_pair_reference(n, seed, extra):
    inst, truth = generate_instance(n, seed, extra)
    assert bits(inst.edges) == bits(reference_generated_edges(n, seed, extra, truth))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 60), seed=st.integers(0, 2**16),
       shift=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
       cutoff=st.sampled_from([0.0, 3.0, 5.0, math.inf]))
def test_ingested_edges_match_per_pair_reference(n, seed, shift, cutoff):
    _, truth = generate_instance(n, seed, 0.0)
    text = format_points(truth + np.array(shift))
    inst = ingest_coordinates(text, cutoff=cutoff)
    assert bits(inst.edges) == bits(reference_ingested_edges(parse_points(text), cutoff))


class TestGenerate:
    def test_deterministic(self):
        a1, t1 = generate_instance(9, 123, 0.5)
        a2, t2 = generate_instance(9, 123, 0.5)
        assert a1 == a2
        assert np.array_equal(t1, t2)

    def test_clique_edge_count(self):
        inst, _ = generate_instance(10, 0, 0.0)
        assert len(inst.edges) == 9 + 8 + 7

    def test_full_fraction_gives_complete_graph(self):
        inst, _ = generate_instance(8, 0, 1.0)
        assert len(inst.edges) == 8 * 7 // 2

    def test_extra_edges_are_pinned(self):
        # the seed's draws pick these pairs; a change to the generator must
        # keep them, so saved instances stay reproducible
        pinned = {(8, 3, 0.3): [(1, 7), (1, 8), (2, 8)],
                  (10, 1, 0.2): [(1, 9), (2, 7), (3, 7), (3, 8)],
                  (12, 5, 0.1): [(1, 9), (1, 11), (4, 10), (7, 11)],
                  (12, 5, 0.0): []}
        for case, pairs in pinned.items():
            inst, _ = generate_instance(*case)
            assert [(u, v) for u, v, _ in inst.edges if v - u > 3] == pairs

    def test_truth_satisfies_instance(self):
        inst, truth = generate_instance(15, 8, 0.3)
        max_viol, _ = verify_realization(inst, truth)
        assert max_viol <= 1e-12

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="at least 4"):
            generate_instance(3, 0)
        with pytest.raises(ValueError, match="fraction"):
            generate_instance(5, 0, 1.5)


class TestIngest:
    def make_text(self, pts):
        return "".join(f"{i+1} {p[0]} {p[1]} {p[2]}\n" for i, p in enumerate(pts))

    def test_small_file(self):
        pts = [(0, 0, 0), (1.5, 0, 0), (1.5, 1.5, 0), (0.2, 1.0, 1.3)]
        inst = ingest_coordinates(self.make_text(pts))
        assert validate_instance(inst).is_dmdgp

    def test_cutoff_zero_gives_clique_edges_only(self):
        _, truth = generate_instance(10, 4, 0.0)
        inst = ingest_coordinates(self.make_text(truth), cutoff=0.0)
        assert len(inst.edges) == 9 + 8 + 7

    def test_infinite_cutoff_gives_complete_graph(self):
        _, truth = generate_instance(10, 4, 0.0)
        inst = ingest_coordinates(self.make_text(truth), cutoff=math.inf)
        assert len(inst.edges) == 10 * 9 // 2

    def test_too_few_points(self):
        with pytest.raises(FileFormatError):
            ingest_coordinates("1 0 0 0\n2 1 0 0\n3 1 1 0\n")


class TestTextFormats:
    def test_instance_round_trip(self):
        inst, _ = generate_instance(7, 99, 0.4)
        again = parse_instance(format_instance(inst))
        assert again == inst

    def test_comments_and_blank_lines(self):
        text = "# comment\n\n4 2\n1 2 1.0  # trailing\n3 4 2.0\n"
        inst = parse_instance(text)
        assert inst.n == 4 and len(inst.edges) == 2

    # (text, line of the error, the edges read up to that line where the
    # fault is in range, finiteness, positivity or repeats, else None)
    MALFORMED = [
        ("", 1, None),
        ("4\n", 1, None),
        ("4 1\n1 2\n", 2, None),
        ("4 1\n1 2 x\n", 2, None),
        ("4 1\n1 9 1.0\n", 2, ((1, 9, 1.0),)),
        ("4 1\n1 2 -1.0\n", 2, ((1, 2, -1.0),)),
        ("4 2\n1 2 1.0\n", 2, None),
        ("4 1\n1 2 nan\n", 2, ((1, 2, math.nan),)),               # non-finite distances
        ("4 2\n1 2 1.0\n\n2 3 inf\n", 4, ((1, 2, 1.0), (2, 3, math.inf))),
        ("4 1\n1 2 -inf\n", 2, ((1, 2, -math.inf),)),
        ("4 3\n1 2 1.0\n2 3 1.0\n1 2 1.0\n", 4,                   # a duplicate, at its own line
         ((1, 2, 1.0), (2, 3, 1.0), (1, 2, 1.0))),
        ("4 1\n1 2 1_0.5\n", 2, None),                            # no digit-group underscores
        ("4 1\n1_0 2 1.0\n", 2, None),
        ("4 1\n1.0 2 1.0\n", 2, None),                            # endpoints are integers
        ("4 2\n1 9 1.0\n1 2 x\n", 2, ((1, 9, 1.0),)),             # the first bad line wins
        ("4 2\n1 2 1.0\n2 3 1.0 4\n", 3, None),
        ("# c\n\n4 1\r\n\t1 2 0\r\n", 4, ((1, 2, 0.0),)),
        ("4 1\n1 2 1.0\n2 3 1.0\n", 3, None),                     # more edges than the header says
        ("4 1\n# no edges\n", 1, None),                           # fewer
        ("0 0\n", 1, None),                                       # no vertices
    ]

    @pytest.mark.parametrize("text, line, edges", MALFORMED,
                             ids=[f"{text}-{line}" for text, line, _ in MALFORMED])
    def test_malformed_instances_carry_line_numbers(self, text, line, edges):
        with pytest.raises(FileFormatError) as err:
            parse_instance(text)
        assert err.value.line_no == line
        if edges is not None:
            # the fault, in Instance's words
            with pytest.raises(ValueError) as want:
                Instance(4, edges)
            assert str(err.value) == f"line {line}: {want.value}"

    def test_empty_edge_list(self):
        assert parse_instance("# no edges\n5 0\n# at all\n") == Instance(5, ())

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 30), seed=st.integers(0, 2**16), extra=st.floats(0.0, 0.5),
           layout=st.integers(0, 2**32 - 1))
    def test_round_trip_through_decorated_text(self, n, seed, extra, layout):
        # comments, blank lines, CRLF line ends and tabs mixed into the
        # text that format_instance writes
        inst, _ = generate_instance(n, seed, extra)
        rng = np.random.default_rng(layout)
        blanks = ("", "   ", "\t", "# comment", "\t# 1 2 3.0")
        out = []
        for line in format_instance(inst).splitlines():
            if rng.random() < 0.3:
                out.append(blanks[rng.integers(len(blanks))])
            spaces = [" \t"[rng.integers(2)] * int(rng.integers(1, 3)) for _ in range(3)]
            fields = line.split()
            line = spaces[0] * int(rng.random() < 0.3) + "".join(
                f + sep for f, sep in zip(fields, spaces[1:] + [""]))
            if rng.random() < 0.3:
                line += spaces[0] + "# trailing"
            out.append(line)
        text = "".join(line + ("\r\n" if rng.random() < 0.5 else "\n") for line in out)
        assert parse_instance(text) == inst

    def test_points_round_trip_is_exact(self):
        _, truth = generate_instance(9, 5, 0.0)
        again = parse_points(format_points(truth))
        assert np.array_equal(again, truth)

    def test_points_text_is_pinned(self):
        pts = np.array([[-0.0, 1e-20, -1.0e20], [0.1, 1 / 3, -2.5e-7],
                        [123456.789, -7.0, 2.0 ** -1074]])
        assert format_points(pts) == (
            "1 -0 9.9999999999999995e-21 -1e+20\n"
            "2 0.10000000000000001 0.33333333333333331 -2.4999999999999999e-07\n"
            "3 123456.789 -7 4.9406564584124654e-324\n")

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(COORDS, COORDS, COORDS), min_size=1, max_size=40),
           as_list=st.booleans())
    @example(rows=[(-0.0, 5e-324, math.nan)], as_list=True)
    @example(rows=[(math.inf, -math.inf, -0.0)], as_list=False)
    def test_points_text_matches_column_stack_form(self, rows, as_list):
        points = [list(row) for row in rows] if as_list else np.array(rows)
        assert format_points(points) == reference_points_text(points)

    @pytest.mark.parametrize("shape", [(3, 2), (3,), (2, 3, 1), (2, 1, 3)], ids=str)
    def test_points_of_another_shape_are_rejected(self, shape):
        points = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
        valid = np.arange(12.0).reshape(4, 3)
        format_points(valid[:3])
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            format_points(points)
        # the rejected call leaves the memo to the call before it
        assert format_points(valid) == reference_points_text(valid)
        assert format_points(np.zeros((0, 3))) == ""

    @staticmethod
    def next_points(data, prev, step):
        """The arrays a step of the memo property formats after ``prev``."""
        n = len(prev)
        if step == "share":      # the first k rows of prev, then new rows
            k = data.draw(st.integers(0, n))
            return [np.vstack((prev[:k], data.draw(point_rows(n - k))))]
        if step == "resize":     # the same, at another vertex count
            m = data.draw(st.integers(1, 20).filter(lambda m: m != n))
            k = data.draw(st.integers(0, min(n, m)))
            return [np.vstack((prev[:k], data.draw(point_rows(m - k))))]
        if step == "repeat":
            return [prev.copy()]
        # "tweak": two arrays that differ in the bits of one coordinate only
        i, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2))
        x = prev[i, c] if math.isfinite(prev[i, c]) else 1.0
        pair = data.draw(st.sampled_from([
            (0.0, -0.0), (-0.0, 0.0), (x, float(np.nextafter(x, math.inf))),
            (float_with_bits(0x7FF8000000000001), float_with_bits(0x7FF8000000000002)),
            (math.nan, float_with_bits(0xFFF8000000000000))]))
        arrays = [prev.copy(), prev.copy()]
        for array, value in zip(arrays, pair):
            array[i, c] = value
        return arrays

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_points_text_does_not_depend_on_the_call_before(self, data):
        # each array shares a prefix of rows with the one before; the
        # sequence holds a bit-level change inside a shared prefix, a new
        # vertex count and an exact repeat, in any order among other steps
        steps = ["tweak", "resize", "repeat"] + data.draw(
            st.lists(st.sampled_from(["share", "tweak", "resize", "repeat"]), max_size=6))
        arrays = [data.draw(point_rows(data.draw(st.integers(1, 20))))]
        for step in data.draw(st.permutations(steps)):
            arrays += self.next_points(data, arrays[-1], step)
        for points in arrays:
            form = data.draw(st.sampled_from(["array", "list", "fortran"]))
            given_points = {"array": points, "list": points.tolist(),
                            "fortran": np.asfortranarray(points)}[form]
            assert format_points(given_points) == reference_points_text(points)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_points_text_of_a_solve_in_any_order(self, seed):
        sols = [r for r, _ in solve(generate_instance(11, seed, 0.0)[0], SolveOptions(mode="all"))]
        assert len(sols) == 256
        # consecutive leaves share at least the anchor rows, so the memo reuses text
        assert all(a[:3].tobytes() == b[:3].tobytes() for a, b in zip(sols, sols[1:]))
        expected = [reference_points_text(r) for r in sols]
        shuffled = list(range(256))
        random.Random(seed).shuffle(shuffled)
        for order in (range(256), range(255, -1, -1), shuffled):
            assert [format_points(sols[i]) for i in order] == [expected[i] for i in order]

    def test_points_text_under_threads(self):
        # three instances whose realizations share their anchor rows, each
        # formatted by its own thread, with frequent thread switches
        work = {seed: [r for r, _ in solve(generate_instance(11, seed, 0.0)[0],
                                           SolveOptions(mode="all"))] for seed in (0, 5, 7)}
        expected = {seed: [reference_points_text(r) for r in sols] * 40
                    for seed, sols in work.items()}
        texts = {}
        start = threading.Barrier(len(work), timeout=60)

        def run(seed):
            start.wait()
            texts[seed] = [format_points(r) for _ in range(40) for r in work[seed]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in work]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert texts == expected

    @pytest.mark.parametrize("text", [
        "1 0 0\n",              # wrong arity
        "1 0 0 zero\n",         # bad float
        "1 0 0 0\n1 1 1 1\n",   # duplicate index
        "1 0 0 0\n3 1 1 1\n",   # gap
    ])
    def test_malformed_points(self, text):
        with pytest.raises(FileFormatError):
            parse_points(text)
