"""Branch & Prune solver tests: anchoring, pruning, enumeration counts,
suffix reflections and symmetry expansion."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgabp.dmdgp import (Instance, format_points, generate_instance, ingest_coordinates,
                         internal_coordinates)
from cgabp.errors import DegenerateGeometryError, InvalidInstanceError
from cgabp.geometry import bond_angle, matrix_place_next, verify_realization
from cgabp.solver import (BranchPath, SolveOptions, expand_by_symmetry,
                          initialize_first_three, prune_check, reflect_suffix,
                          solve)


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
        assert abs(np.linalg.norm(pts[2] - pts[0]) - inst.distance(1, 3)) <= 1e-12
        assert pts[2][1] > 0 and abs(pts[2][2]) == 0.0


class TestPruneCheck:
    def test_ground_truth_prefixes_pass(self):
        inst, truth = generate_instance(9, 2, 0.5)
        for i in range(1, 10):
            assert prune_check(truth[:i], inst, 1e-6)

    def test_perturbed_prefix_fails(self):
        inst, truth = generate_instance(9, 2, 0.0)
        eps = 1e-4
        bad = truth[:5].copy()
        bad[4] += 10 * eps
        assert not prune_check(bad, inst, eps)

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
        path_bound = inst.distance(1, 2) + inst.distance(2, 3) + inst.distance(3, 4)
        edges.append((1, 4, path_bound + 1.0))
        assert solve(Instance(5, tuple(edges)), SolveOptions(mode="all")) == []

    def test_invalid_instance_raises(self):
        inst = Instance(5, tuple((u, v, 1.5) for u in range(1, 5) for v in (u + 1,)))
        with pytest.raises(InvalidInstanceError):
            solve(inst)

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
        # planar torsions (0 and pi) at vertices 4 and 6: their two
        # placements coincide, so only vertex 5 branches
        pts = [np.zeros(3), np.array([-1.526, 0.0, 0.0])]
        pts.append(pts[1] + 1.526 * np.array([math.cos(1.91), math.sin(1.91), 0.0]))
        for omega in (0.0, 1.0, math.pi):
            pts.append(matrix_place_next(pts[-3], pts[-2], pts[-1], 1.91, omega, 1.526)[0])
        inst = ingest_coordinates(format_points(np.array(pts)), cutoff=0)
        sols = solve(inst, SolveOptions(mode="all"))
        assert [str(p) for _, p in sols] == ["+++", "+-+"]

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(eps=0.0)
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
        assert verify_realization(inst, r, eps)[0] <= eps


def test_branch_path_round_trip():
    p = BranchPath((1, -1, 1, 1))
    assert str(p) == "+-++"
    assert BranchPath.from_string("+-++") == p
    with pytest.raises(ValueError):
        BranchPath.from_string("+x")
    with pytest.raises(ValueError):
        BranchPath((1, 0))
