"""Branch & Prune solver tests: anchoring, pruning, enumeration counts,
symmetry vertices and their mirrored subtrees, suffix reflections,
symmetry expansion, and the float walk against the NumPy walk it replaced."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cgabp.dmdgp import (Instance, format_points, generate_instance, ingest_coordinates,
                         internal_coordinates, validate_instance)
from cgabp.errors import DegenerateGeometryError, InfeasibleInstanceError, InvalidInstanceError
from cgabp.geometry import bond_angle, matrix_place_next, verify_realization
from cgabp import solver
from cgabp.solver import (BranchPath, SolveOptions, expand_by_symmetry,
                          initialize_first_three, prune_check, reflect_suffix,
                          solve, step_motor, symmetry_vertices)

from conftest import einsum_compose, einsum_origin


def reference_prune_check(partial, inst, eps):
    """prune_check as one vectorized check of a (v, 3) array, over the
    edges (u, v) with v - u >= 4 picked from ``edge_arrays``."""
    u, w, d = inst.edge_arrays()
    mine = (w == len(partial)) & (w - u >= 4)
    if not mine.any():
        return True
    diff = partial[u[mine] - 1] - partial[-1]
    return bool(np.abs(np.sqrt(np.einsum("ij,ij->i", diff, diff)) - d[mine]).max() <= eps)


def reference_solve(inst, opts=SolveOptions()):
    """solve as the NumPy walk it replaced: motors and points in preallocated
    arrays, each child composed and mapped to its point by ``np.einsum``
    over the motor tables, and the prune check vectorized.  The set-up, the
    mirroring and the merge are solve's own."""
    report = validate_instance(inst)
    if not report.is_dmdgp:
        raise InvalidInstanceError(report)
    try:
        coords = internal_coordinates(inst)
    except InfeasibleInstanceError:
        return []
    if not np.all(coords.clique_miss <= opts.eps):
        return []
    n = inst.n
    points = np.zeros((n, 3))
    points[:3] = initialize_first_three(coords)
    theta, d = coords.bond_angles[1:], coords.bond_lengths[2:]
    omega = np.arccos(coords.dihedral_cos)
    steps = np.stack((step_motor(theta, omega, d), step_motor(theta, -omega, d)), axis=1)
    near = 2.0 * d * np.sin(theta) * np.sin(omega) <= opts.eps
    planar = near & (1.0 - np.abs(coords.dihedral_cos) <= 1024 * np.finfo(float).eps)
    mirror = symmetry_vertices(inst) & ~planar
    width = np.where(planar | mirror, 1, 2).tolist()
    flip = np.where(planar, 1, -1).astype(np.int8)
    near, mirror = np.flatnonzero(near & ~planar), mirror.tolist()
    motors = np.zeros((n + 1, 8))
    motors[3] = einsum_compose(step_motor(0.0, 0.0, coords.bond_lengths[0]),
                               step_motor(coords.bond_angles[0], math.pi, coords.bond_lengths[1]))
    cap = 1 if opts.mode == "first" else opts.max_solutions
    out, seen, leaves = [], set(), []
    tried, start = [0] * (n - 3), [0] * (n - 3)
    v = 4
    while v > 3:
        if v > n:
            leaves.append((points[None].copy(), np.array([[1 if t == 1 else -1 for t in tried]],
                                                         dtype=np.int8)))
            if solver._emit(out, seen, *leaves[-1], near, cap):
                break
            v -= 1
            continue
        k = v - 4
        if tried[k] == width[k]:
            tried[k] = 0
            if mirror[k] and len(leaves) > start[k]:
                leaves.append(solver._mirror(leaves[start[k]:], points[k:k + 3], k, flip))
                if solver._emit(out, seen, *leaves[-1], near, cap):
                    break
            v -= 1
            continue
        if not tried[k]:
            start[k] = len(leaves)
        motors[v] = einsum_compose(motors[v - 1], steps[k, tried[k]])
        tried[k] += 1
        points[v - 1] = einsum_origin(motors[v])
        if reference_prune_check(points[:v], inst, opts.eps):
            v += 1
    return out


def same_output(got, expected):
    """Same paths in the same order, with the same coordinate bytes."""
    return ([str(p) for _, p in got] == [str(p) for _, p in expected]
            and all(r.tobytes() == q.tobytes() for (r, _), (q, _) in zip(got, expected)))


def all_paths(length):
    return [BranchPath(s) for s in itertools.product((1, -1), repeat=length)]


def matrix_replay(inst, path):
    """Realization of ``path`` by the torsion-matrix chain from the anchor."""
    coords = internal_coordinates(inst)
    pts = list(initialize_first_three(coords))
    for k, sign in enumerate(path.signs):
        omega = math.acos(min(1.0, max(-1.0, float(coords.dihedral_cos[k]))))
        pts.append(matrix_place_next(pts[-3], pts[-2], pts[-1], float(coords.bond_angles[k + 1]),
                                     sign * omega, float(coords.bond_lengths[k + 2]))[0])
    return np.array(pts)


def solve_counting_nodes(inst, opts=SolveOptions()):
    """solve, and the number of prune_check calls (walked nodes) it made."""
    calls = []

    def counted(partial, instance, eps):
        calls.append(len(partial))
        return prune_check(partial, instance, eps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "prune_check", counted)
        sols = solve(inst, opts)
    return sols, len(calls)


class _OverBudget(Exception):
    pass


def solve_within(inst, opts, nodes):
    """solve, or None if it walks more than ``nodes`` nodes."""
    calls = 0

    def counted(partial, instance, eps):
        nonlocal calls
        calls += 1
        if calls > nodes:
            raise _OverBudget
        return prune_check(partial, instance, eps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "prune_check", counted)
        try:
            return solve(inst, opts)
        except _OverBudget:
            return None


def chain_points(torsions, theta=1.91, d=1.526):
    """Chain with one bond angle and length, placed by the torsion-matrix
    oracle; torsions[k] is the torsion of vertex k + 4."""
    pts = [np.zeros(3), np.array([-d, 0.0, 0.0])]
    pts.append(pts[1] + d * np.array([math.cos(theta), math.sin(theta), 0.0]))
    for omega in torsions:
        pts.append(matrix_place_next(pts[-3], pts[-2], pts[-1], theta, omega, d)[0])
    return np.array(pts)


class TestAnchor:
    def test_spec_right_angle_case(self):
        inst = Instance(4, ((1, 2, 1.0), (2, 3, 1.0), (1, 3, math.sqrt(2)),
                            (3, 4, 1.0), (2, 4, math.sqrt(2)), (1, 4, 1.2)))
        pts = initialize_first_three(internal_coordinates(inst))
        assert np.allclose(pts[0], [0, 0, 0])
        assert np.allclose(pts[1], [-1, 0, 0])
        assert np.allclose(pts[2], [-1, 1, 0], atol=1e-12)
        assert abs(np.linalg.norm(pts[2] - pts[0]) - math.sqrt(2)) <= 1e-12

    def test_law_of_cosines_and_exact_pieces(self, rng):
        inst, _ = generate_instance(6, 17, 0.0)
        coords = internal_coordinates(inst)
        pts = initialize_first_three(coords)
        assert np.linalg.norm(pts[1] - pts[0]) == coords.bond_lengths[0]
        assert abs(bond_angle(pts[0], pts[1], pts[2]) - coords.bond_angles[0]) <= 1e-12
        assert abs(np.linalg.norm(pts[2] - pts[0]) - inst.clique_distances()[2, 1]) <= 1e-12
        assert pts[2][1] > 0 and abs(pts[2][2]) == 0.0


class TestPruneCheck:
    def test_ground_truth_prefixes_pass(self):
        inst, truth = generate_instance(9, 2, 0.5)
        for i in range(1, 10):
            assert prune_check(truth[:i], inst, 1e-6)

    def test_perturbed_prefix_fails(self):
        inst, truth = generate_instance(9, 2, 0.5)
        eps = 1e-4
        u = [a - 1 for a, w, _ in inst.edges if w == 9 and w - a >= 4]
        assert u
        # move vertex 9 away from its first pruning neighbour by 10 eps
        away = truth[8] - truth[u[0]]
        bad = truth.copy()
        bad[8] += 10 * eps * away / np.linalg.norm(away)
        assert not prune_check(bad, inst, eps)

    def test_matches_per_edge_loop(self, rng):
        # a per-edge loop over the edges with v - u >= 4 is the reference; a
        # prefix with a miss within 1e-12 of eps may round either way: skip it
        eps = 1e-3
        for seed in range(4):
            inst, truth = generate_instance(14, seed, 0.5)
            for v in range(5, 15):
                bad = truth[:v] + rng.normal(scale=eps / 2, size=(v, 3))
                misses = [abs(np.linalg.norm(bad[v - 1] - bad[u - 1]) - d)
                          for u, w, d in inst.edges if w == v and v - u >= 4]
                if any(abs(m - eps) <= 1e-12 for m in misses):
                    continue
                assert prune_check(bad, inst, eps) == all(m <= eps for m in misses)

    def test_discretization_edges_are_not_checked(self):
        # vertex 5 has no pruning edge: its clique edges are met by
        # construction, so a perturbed vertex 5 is not tested again
        inst, truth = generate_instance(9, 2, 0.0)
        bad = truth[:5].copy()
        bad[4] += 1.0
        assert prune_check(bad, inst, 1e-4)

    def test_anchor_passes(self):
        inst, _ = generate_instance(9, 2, 0.0)
        pts = initialize_first_three(internal_coordinates(inst))
        for i in (1, 2, 3):
            assert prune_check(pts[:i], inst, 1e-10)


class TestSolve:
    def test_unpruned_counts(self):
        for n in (4, 5, 6):
            inst, _ = generate_instance(n, n, 0.0)
            sols = solve(inst, SolveOptions(mode="all"))
            assert len(sols) == 2 ** (n - 3)
            for r, path in sols:
                assert verify_realization(inst, r)[0] <= 1e-4
                assert len(path.signs) == n - 3

    def test_deterministic_dfs_order(self):
        inst, _ = generate_instance(6, 1, 0.0)
        sols1 = solve(inst, SolveOptions(mode="all"))
        sols2 = solve(inst, SolveOptions(mode="all"))
        assert [str(p) for _, p in sols1] == [str(p) for _, p in sols2]
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(sols1, sols2))
        # + explored before -: first path is all-plus on an unpruned instance
        assert str(sols1[0][1]) == "+++"

    def test_solutions_share_anchor(self):
        inst, _ = generate_instance(7, 3, 0.0)
        sols = solve(inst, SolveOptions(mode="all"))
        first = sols[0][0][:3]
        for r, _ in sols:
            assert np.max(np.abs(r[:3] - first)) <= 1e-12

    def test_fully_constrained_leaves_mirror_pair(self):
        inst, truth = generate_instance(7, 21, 1.0)
        sols = solve(inst, SolveOptions(mode="all"))
        assert len(sols) == 2
        mirror = truth * np.array([1.0, 1.0, -1.0])
        for r, _ in sols:
            assert min(np.max(np.abs(r - truth)), np.max(np.abs(r - mirror))) <= 1e-6
        assert sols[0][1].signs == tuple(-s for s in sols[1][1].signs)

    def test_infeasible_edge_gives_empty_list(self):
        inst, _ = generate_instance(5, 4, 0.0)
        edges = [(u, v, d) for u, v, d in inst.edges if (u, v) != (1, 4)]
        path_bound = sum(d for u, v, d in edges if v - u == 1 and v <= 4)
        edges.append((1, 4, path_bound + 1.0))
        assert solve(Instance(5, tuple(edges)), SolveOptions(mode="all")) == []

    def test_infeasible_triangle_gives_empty_list(self):
        # valid by the strict triangle test, but d(1, 3) < d(2, 3) - d(1, 2)
        inst = Instance(4, ((1, 2, 1.0), (2, 3, 3.0), (1, 3, 1.5), (3, 4, 1.0),
                            (2, 4, 2.5), (1, 4, 2.0)))
        assert solve(inst, SolveOptions(mode="all")) == []

    def test_invalid_instance_raises(self):
        inst = Instance(5, tuple((u, v, 1.5) for u in range(1, 5) for v in (u + 1,)))
        with pytest.raises(InvalidInstanceError):
            solve(inst)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_chains_have_one_realization(self, n):
        # the first n points of the anchor, with no sign to choose
        edges = ((1, 2, 1.5), (2, 3, 1.25), (1, 3, 2.0))
        inst = Instance(n, tuple(e for e in edges if e[1] <= n))
        sols = solve(inst)
        assert len(sols) == 1
        r, path = sols[0]
        assert path == BranchPath(()) and str(path) == ""
        assert r.shape == (n, 3)
        assert r[:2].tolist() == [[0.0, 0.0, 0.0], [-1.5, 0.0, 0.0]][:n]
        if n == 3:
            assert np.array_equal(r, initialize_first_three(internal_coordinates(inst)))
        assert verify_realization(inst, r)[0] <= 1e-12

    @pytest.mark.parametrize("scale", [1e20, 1e40, 1e80, 1e160, 1e300])
    def test_overflowing_distances_give_no_nan_realization(self, scale):
        # d^2, or a product of the Gram entries, overflows from about 1e38
        # on: the NaN that follows fails the triangle and clique checks
        # instead of passing them
        inst, _ = generate_instance(6, 1, 0.0)
        scaled = Instance(6, tuple((u, v, d * scale) for u, v, d in inst.edges))
        eps = 1e-4 * scale
        with np.errstate(over="ignore", invalid="ignore"):
            sols = solve(scaled, SolveOptions(eps=eps))
        for r, _ in sols:
            assert np.isfinite(r).all()
            assert verify_realization(scaled, r)[0] <= eps
        if scale == 1e20:
            assert len(sols) == 8

    def test_first_mode_and_cap(self):
        inst, _ = generate_instance(8, 5, 0.0)
        assert len(solve(inst, SolveOptions(mode="first"))) == 1
        assert len(solve(inst, SolveOptions(mode="all", max_solutions=7))) == 7

    def test_paths_replay_through_matrix_oracle(self):
        cases = [(n, n + 40, 0.0) for n in (5, 6)]
        cases += [(n, 3 * n + k, f) for k, f in enumerate((0.05, 0.1, 0.2, 0.3))
                  for n in (7, 9, 11)]
        # eps-borderline: vertex 2 lies 0.0008 A from the plane through
        # vertices 10..12, so the mirror of vertex 13 misses d(2, 13) by
        # less than eps
        borderline = (13, 20, 0.15)
        for options in (dict(mode="all"), dict(mode="all", max_solutions=3),
                        dict(mode="first")):
            for case in cases + [borderline]:
                inst, _ = generate_instance(*case)
                sols = solve(inst, SolveOptions(**options))
                for r, path in sols:
                    assert np.max(np.abs(r - matrix_replay(inst, path))) <= 1e-8, (case, options)
                if case == borderline and options == dict(mode="all"):
                    assert len(sols) == 8

    def test_long_chain_first_solution_matches_oracle(self):
        inst, _ = generate_instance(2000, 1, 0.0)
        sols = solve(inst, SolveOptions(mode="first"))
        assert len(sols) == 1
        r, path = sols[0]
        assert np.max(np.abs(r - matrix_replay(inst, path))) <= 1e-8

    def test_coincident_children_are_not_branched(self):
        # torsions 0 and pi at vertices 4 and 6 are planar up to rounding:
        # only their + child is walked, so only vertex 5 branches
        inst = ingest_coordinates(format_points(chain_points((0.0, 1.0, math.pi))), cutoff=0)
        sols = solve(inst, SolveOptions(mode="all"))
        assert [str(p) for _, p in sols] == ["+++", "+-+"]

    def test_near_coincident_minus_leaves_are_merged(self):
        # torsions 1e-6 rad from 0 and pi put the two placements of vertices
        # 4 and 6 about 3e-6 apart: both children are walked, and every leaf
        # taking a - child there has the path of a returned one once its
        # signs at 4 and 6 are set to +
        inst = ingest_coordinates(format_points(chain_points((1e-6, 1.0, math.pi - 1e-6))),
                                  cutoff=0)
        sols = solve(inst, SolveOptions(mode="all"))
        assert [str(p) for _, p in sols] == ["+++", "+-+"]

    @pytest.mark.parametrize("n, count", [(12, 256), (14, 1024), (15, 2048)])
    def test_near_vertex_halves_the_solutions_far_from_the_anchor(self, n, count):
        # an unpruned chain with torsions of 0.5-2.5 rad, except 1e-5 rad at
        # vertex 4: its two placements are 2.9e-5 A apart, and the leaves far
        # down the chain, where a - leaf and its + twin drift apart by
        # 2 omega times the distance from the bond axis, still merge in pairs
        rng = np.random.default_rng(n)
        torsions = rng.uniform(0.5, 2.5, n - 3) * rng.choice((-1.0, 1.0), n - 3)
        torsions[0] = 1e-5
        inst = ingest_coordinates(format_points(chain_points(torsions)), cutoff=0)
        sols, nodes = solve_counting_nodes(inst)
        assert len(sols) == count
        assert all(path.signs[0] == 1 for _, path in sols)
        assert nodes <= n

    @pytest.mark.parametrize("torsions, cutoff, count", [
        ((math.pi,) * 27, 0.0, 1),                  # planar zigzag, n = 30
        ((-0.8, math.pi, -1.0) * 15, 5.0, 2),       # helix with trans peptides, n = 48
    ])
    def test_planar_torsions_keep_the_walk_linear(self, monkeypatch, torsions, cutoff, count):
        # a torsion of exactly 0 or pi must not double the tree below it
        inst = ingest_coordinates(format_points(chain_points(torsions)), cutoff=cutoff)
        calls = []

        def counted(partial, instance, eps):
            calls.append(len(partial))
            assert len(calls) <= 4 * inst.n, "tree walk is not linear in n"
            return prune_check(partial, instance, eps)

        monkeypatch.setattr(solver, "prune_check", counted)
        assert len(solve(inst, SolveOptions(mode="all"))) == count

    def test_rounded_distances_meet_eps_on_every_edge(self):
        # distances of generate_instance(30, s, 0.2) at PDB precision (3 decimals)
        def rounded(s):
            inst, _ = generate_instance(30, s, 0.2)
            return Instance(30, tuple((u, v, round(d, 3)) for u, v, d in inst.edges))

        inst = rounded(0)
        miss = internal_coordinates(inst).clique_miss
        assert abs(miss[11] - 8.8e-4) <= 1e-5              # clique (12, 13, 14, 15)
        assert solve(inst, SolveOptions(eps=5e-4, mode="all")) == []
        inst = rounded(21)
        sols = solve(inst, SolveOptions(eps=0.03, mode="first"))
        assert len(sols) == 1
        assert verify_realization(inst, sols[0][0])[0] <= 0.03

    def test_realizations_own_their_memory(self):
        # a mirrored instance (vertex 4 is always a symmetry vertex), kept while
        # later solves run, as a caller comparing against a set-up solve does
        inst, _ = generate_instance(10, 1185723877, 0.07)
        sols = solve(inst)
        kept = [(r.copy(), path) for r, path in sols]
        for other in (inst, generate_instance(10, 3, 0.0)[0], inst):
            solve(other)
        assert [str(p) for _, p in sols] == [str(p) for _, p in kept]
        assert all(np.array_equal(r, k) for (r, _), (k, _) in zip(sols, kept))
        assert not any(np.shares_memory(a, b) for (a, _), (b, _) in itertools.combinations(sols, 2))
        # paths made without the sign check are the checked ones
        assert [p for _, p in sols] == [BranchPath(tuple(p.signs)) for _, p in sols]
        assert all(type(s) is int for _, p in sols for s in p.signs)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(eps=0.0)
        for eps in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps"):
                SolveOptions(eps=eps)
        with pytest.raises(ValueError):
            SolveOptions(mode="everything")
        with pytest.raises(ValueError):
            SolveOptions(max_solutions=0)


class TestReflectSuffix:
    def test_involution(self):
        inst, truth = generate_instance(8, 6, 0.0)
        twice = reflect_suffix(reflect_suffix(truth, 5), 5)
        assert np.max(np.abs(twice - truth)) <= 1e-10

    def test_prefix_fixed_and_partwise_isometry(self):
        _, truth = generate_instance(9, 6, 0.0)
        refl = reflect_suffix(truth, 5)
        assert np.array_equal(refl[:4], truth[:4])
        for block in (range(0, 4), range(4, 9)):
            for i in block:
                for j in block:
                    before = np.linalg.norm(truth[i] - truth[j])
                    after = np.linalg.norm(refl[i] - refl[j])
                    assert abs(before - after) <= 1e-10

    def test_reflection_matches_suffix_flipped_solution(self):
        # reflecting at vertex i flips the torsion signs of every vertex >= i
        inst, _ = generate_instance(7, 13, 0.0)
        sols = solve(inst, SolveOptions(mode="all"))
        by_path = {p.signs: r for r, p in sols}
        base_r, base_p = sols[0]
        for vertex in range(4, 8):
            k = vertex - 4
            target = tuple(s if j < k else -s for j, s in enumerate(base_p.signs))
            got = reflect_suffix(base_r, vertex)
            assert np.max(np.abs(got - by_path[target])) <= 1e-8

    def test_commutes_with_translation(self):
        # far from the origin the conformal points' coefficients grow with
        # |x|^2, which must not make the carrier plane look degenerate
        _, truth = generate_instance(9, 6, 0.0)
        t = np.array([100.0, 0.0, 0.0])
        for vertex in range(4, 10):
            moved = reflect_suffix(truth + t, vertex)
            assert np.max(np.abs(moved - (reflect_suffix(truth, vertex) + t))) <= 1e-8

    def test_bad_vertex_rejected(self):
        _, truth = generate_instance(6, 6, 0.0)
        with pytest.raises(ValueError):
            reflect_suffix(truth, 3)
        with pytest.raises(ValueError):
            reflect_suffix(truth, 7)

    def test_degenerate_plane_rejected(self):
        collinear = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 1, 0], [4, 1, 1]])
        with pytest.raises(DegenerateGeometryError):
            reflect_suffix(collinear, 4)


class TestExpandBySymmetry:
    def test_identity_target(self):
        inst, _ = generate_instance(6, 8, 0.0)
        base = solve(inst, SolveOptions(mode="first"))[0]
        out = expand_by_symmetry(base, [base[1]], inst)
        assert len(out) == 1
        assert np.max(np.abs(out[0] - base[0])) <= 1e-12

    def test_reproduces_full_unpruned_set(self):
        inst, _ = generate_instance(6, 10, 0.0)
        sols = solve(inst, SolveOptions(mode="all"))
        base = sols[0]
        targets = all_paths(3)
        expanded = expand_by_symmetry(base, targets, inst)
        assert len(expanded) == 8
        by_path = {p.signs: r for r, p in sols}
        for target, r in zip(targets, expanded):
            assert np.max(np.abs(r - by_path[target.signs])) <= 1e-8

    def test_filters_infeasible_targets_on_constrained_instance(self):
        inst, _ = generate_instance(7, 12, 1.0)
        base = solve(inst, SolveOptions(mode="first"))[0]
        expanded = expand_by_symmetry(base, all_paths(4), inst)
        assert len(expanded) == 2


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 12), seed=st.integers(0, 2**16), extra=st.floats(0.0, 0.3))
def test_every_solution_satisfies_every_edge(n, seed, extra):
    # the search prunes each edge once and never re-verifies its leaves
    inst, _ = generate_instance(n, seed, extra)
    eps = 1e-4
    for r, _ in solve(inst, SolveOptions(eps=eps)):
        assert verify_realization(inst, r)[0] <= eps


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 12), seed=st.integers(0, 2**16), extra=st.floats(0.0, 0.3),
       ingest=st.booleans())
@example(n=200, seed=91, extra=0.0, ingest=True)
@example(n=200, seed=130, extra=0.0, ingest=True)
@example(n=200, seed=322, extra=0.0, ingest=True)
def test_solutions_are_closed_under_mirroring(n, seed, extra, ingest):
    # vertex 4 is always a symmetry vertex, so the mirror image of every
    # realization through the anchor plane z = 0 is a realization too; the
    # fixed cases each have a vertex whose two placements lie under eps apart
    inst, truth = generate_instance(n, seed, extra)
    if ingest:
        inst = ingest_coordinates(format_points(truth), cutoff=5.0)
    eps = 1e-4
    sols = [r for r, _ in solve(inst, SolveOptions(eps=eps))]
    for r in sols:
        mirror = r * np.array([1.0, 1.0, -1.0])
        assert min(np.max(np.abs(mirror - q)) for q in sols) <= eps


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**16), extra=st.floats(0.0, 0.3),
       ingest=st.booleans())
@example(n=200, seed=0, extra=0.0, ingest=True)
def test_symmetry_vertices_match_their_definition(n, seed, extra, ingest):
    # v >= 4 is a symmetry vertex when no edge (u, w) has u + 3 < v <= w
    inst, truth = generate_instance(n, seed, extra)
    if ingest:
        inst = ingest_coordinates(format_points(truth), cutoff=5.0)
    expected = [v for v in range(4, n + 1) if not any(u + 3 < v <= w for u, w, _ in inst.edges)]
    assert (np.flatnonzero(symmetry_vertices(inst)) + 4).tolist() == expected


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 14), seed=st.integers(0, 2**16), extra=st.floats(0.0, 0.3))
@example(n=13, seed=20, extra=0.15)
def test_exact_instance_has_two_to_the_symmetry_count_solutions(n, seed, extra):
    # exact distances: every solution is the truth reflected at some subset
    # of the symmetry vertices.  In the fixed case vertex 2 lies 8e-4 A off
    # the plane of vertices 10..12, so at eps 1e-4 the mirror of vertex 13
    # passes too (8 solutions); at this eps it does not (4).
    inst, _ = generate_instance(n, seed, extra)
    eps = 1e-6
    coords = internal_coordinates(inst)
    theta, d = coords.bond_angles[1:], coords.bond_lengths[2:]
    sin_omega = np.sqrt(1.0 - coords.dihedral_cos ** 2)
    assume(np.all(2.0 * d * np.sin(theta) * sin_omega > eps))   # no near-coincident vertex
    sols = solve(inst, SolveOptions(eps=eps))
    assert len(sols) == 2 ** int(symmetry_vertices(inst).sum())


@settings(max_examples=40, deadline=None)
@given(torsions=st.lists(st.tuples(st.booleans(), st.floats(0.3, math.pi - 0.3),
                                   st.floats(3e-6, 1e-5), st.sampled_from((-1.0, 1.0)),
                                   st.booleans()),
                         min_size=1, max_size=12))
def test_near_vertices_divide_the_solutions_by_two_each(torsions):
    # no pruning edge, k near-coincident vertices that are not planar (a
    # torsion 3e-6 to 1e-5 rad from 0 or pi): exactly 2^(n-3-k) solutions,
    # each with + at every near vertex, from a walk of one descent
    omegas = [sign * ((math.pi - small if flip else small) if near else far)
              for near, far, small, sign, flip in torsions]
    inst = ingest_coordinates(format_points(chain_points(omegas)), cutoff=0)
    coords = internal_coordinates(inst)
    theta, d = coords.bond_angles[1:], coords.bond_lengths[2:]
    near = 2.0 * d * np.sin(theta) * np.sqrt(1.0 - coords.dihedral_cos ** 2) <= 1e-4
    assert near.tolist() == [t[0] for t in torsions]
    assert np.all(1.0 - np.abs(coords.dihedral_cos) > 1024 * np.finfo(float).eps)
    sols, nodes = solve_counting_nodes(inst)
    assert len(sols) == 2 ** (len(omegas) - int(near.sum()))
    assert all(np.all(np.array(path.signs)[near] == 1) for _, path in sols)
    assert nodes <= inst.n


def test_capped_solves_are_prefixes_of_the_full_list():
    # the first leaf is walked and later ones mostly mirrored: on the
    # unpruned n = 7 chain every k > 1 stops inside a mirrored block.
    # On the last chain, vertices 4 and 6 are near-coincident: the blocks
    # mirrored at 4 and 6 are dropped whole by the merge, and vertex 5's
    # block keeps 2 of its 4 leaves, so the cap counts merged solutions.
    near = ingest_coordinates(format_points(chain_points((1e-6, 1.0, math.pi - 1e-6, -0.5))),
                              cutoff=0)
    cases = [generate_instance(7, 3, 0.0)[0], generate_instance(10, 19, 0.15)[0],
             generate_instance(13, 20, 0.15)[0], near]
    for inst in cases:
        full = solve(inst, SolveOptions(mode="all"))
        assert len(full) > 2
        for k in range(1, len(full) + 1):
            got = solve(inst, SolveOptions(max_solutions=k))
            assert [p for _, p in got] == [p for _, p in full[:k]]
            assert all(np.array_equal(r, q) for (r, _), (q, _) in zip(got, full))
        (r, path), = solve(inst, SolveOptions(mode="first"))
        assert path == full[0][1] and np.array_equal(r, full[0][0])
    assert [str(p) for _, p in solve(near, SolveOptions())] == ["++++", "+++-", "+-++", "+-+-"]


def test_branch_path_round_trip():
    p = BranchPath((1, -1, 1, 1))
    assert str(p) == "+-++"
    with pytest.raises(ValueError):
        BranchPath((1, 0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**16), extra=st.floats(0.0, 0.3))
@example(n=13, seed=20, extra=0.15)
def test_float_walk_matches_the_numpy_walk_on_generated_instances(n, seed, extra):
    # with few pruning edges the solutions grow as 2^(n - 3), so they are
    # capped; a long edge and little else leaves 2^(w - u) nodes unpruned
    # below it, so such draws are skipped
    inst, _ = generate_instance(n, seed, extra)
    opts = SolveOptions(max_solutions=256)
    got = solve_within(inst, opts, nodes=20_000)
    assume(got is not None)
    assert same_output(got, reference_solve(inst, opts))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 200), seed=st.integers(0, 2**16), mode=st.sampled_from(["all", "first"]))
@example(n=200, seed=91, mode="all")
@example(n=200, seed=322, mode="first")
def test_float_walk_matches_the_numpy_walk_on_ingested_chains(n, seed, mode):
    # chains ingested at 5 A prune about half their nodes; seeds 91 and 322
    # each have a near-coincident vertex
    _, truth = generate_instance(n, seed, 0.0)
    inst = ingest_coordinates(format_points(truth), cutoff=5.0)
    opts = SolveOptions(mode=mode)
    assert same_output(solve(inst, opts), reference_solve(inst, opts))


def test_translation_keeps_the_paths_of_sixty_vertex_chains():
    # every generate_instance(60, s) truth for s = 0..59, moved 1e2, 1e4 and
    # 1e6 A along a direction drawn from s and ingested at 5 A
    for seed in range(60):
        _, truth = generate_instance(60, seed, 0.0)
        unit = np.random.default_rng(seed).normal(size=3)
        unit /= np.linalg.norm(unit)
        moved = [truth] + [truth + distance * unit for distance in (1e2, 1e4, 1e6)]
        paths = [[path for _, path in solve(ingest_coordinates(format_points(points), cutoff=5.0))]
                 for points in moved]
        assert paths[0] and paths[1:] == paths[:1] * 3, seed


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 60), seed=st.integers(0, 2**16),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda x: math.hypot(*x) >= 0.1))
def test_translation_does_not_change_the_branch_paths(n, seed, direction):
    # the ground truth moved 1e2, 1e4 and 1e6 A away and ingested at 5 A
    # gives the paths of the truth where it was generated
    _, truth = generate_instance(n, seed, 0.0)
    unit = np.array(direction) / math.hypot(*direction)

    def paths(points):
        inst = ingest_coordinates(format_points(points), cutoff=5.0)
        return [path for _, path in solve(inst, SolveOptions(mode="all"))]

    expected = paths(truth)
    assert expected
    for distance in (1e2, 1e4, 1e6):
        assert paths(truth + distance * unit) == expected


def test_prune_check_takes_lists_and_arrays_alike(rng):
    inst, truth = generate_instance(30, 4, 0.3)
    for v in range(1, 31):
        bad = truth[:v].copy()
        bad[-1] += rng.normal(scale=1e-4, size=3)
        for pts in (truth[:v], bad):
            expected = reference_prune_check(pts, inst, 1e-4)
            assert prune_check(pts, inst, 1e-4) == expected
            assert prune_check([tuple(p) for p in pts.tolist()], inst, 1e-4) == expected


def test_nan_distance_prunes():
    inst, truth = generate_instance(12, 3, 1.0)
    pts = truth.copy()
    pts[-1, 0] = math.nan
    assert not prune_check(pts, inst, 1e-4)
    assert not prune_check([tuple(p) for p in pts.tolist()], inst, 1e-4)
    assert not reference_prune_check(pts, inst, 1e-4)


def test_solved_instance_is_freed_once_dropped():
    # the list form of the pruning rows lives on the instance, not in a
    # cache that would keep every solved instance alive
    _, truth = generate_instance(60, 1, 0.0)
    inst = ingest_coordinates(format_points(truth), cutoff=5.0)
    assert solve(inst)
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None
