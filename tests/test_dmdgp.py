"""Instance model tests: validation, internal coordinates, generation,
ingestion and the text formats."""

import math

import numpy as np
import pytest

from cgabp.dmdgp import (GENERATOR_BOND_ANGLE, GENERATOR_BOND_LENGTH, Instance,
                         format_instance, format_points, generate_instance,
                         ingest_coordinates, internal_coordinates,
                         parse_instance, parse_points, validate_instance)
from cgabp.errors import FileFormatError, InfeasibleInstanceError
from cgabp.geometry import dihedral_angle, matrix_place_next, verify_realization


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

    def test_lookups(self):
        inst = Instance(4, ((1, 2, 1.0), (2, 3, 2.0)))
        assert inst.distance(2, 1) == 1.0
        assert inst.distance(1, 3) is None
        assert inst.neighbors_below(3) == [(2, 2.0)]


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
        inst = Instance(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 1.2),
                            (2, 4, 1.2), (1, 4, 10.0)))
        with pytest.raises(InfeasibleInstanceError):
            internal_coordinates(inst)

    def test_generated_chain_reproduces_generator_constants(self):
        inst, truth = generate_instance(12, 31, 0.0)
        coords = internal_coordinates(inst)
        assert np.max(np.abs(coords.bond_lengths - GENERATOR_BOND_LENGTH)) <= 1e-9
        assert np.max(np.abs(coords.bond_angles - GENERATOR_BOND_ANGLE)) <= 1e-9
        for i in range(4, 13):
            measured = dihedral_angle(*(truth[i - 4:i]))
            assert abs(abs(math.cos(measured)) - abs(coords.dihedral_cos[i - 4])) <= 1e-9


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

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("4\n", 1),
        ("4 1\n1 2\n", 2),
        ("4 1\n1 2 x\n", 2),
        ("4 1\n1 9 1.0\n", 2),
        ("4 1\n1 2 -1.0\n", 2),
        ("4 2\n1 2 1.0\n", 2),
    ])
    def test_malformed_instances_carry_line_numbers(self, text, line):
        with pytest.raises(FileFormatError) as err:
            parse_instance(text)
        assert err.value.line_no == line

    def test_points_round_trip_is_exact(self):
        _, truth = generate_instance(9, 5, 0.0)
        again = parse_points(format_points(truth))
        assert np.array_equal(again, truth)

    @pytest.mark.parametrize("text", [
        "1 0 0\n",              # wrong arity
        "1 0 0 zero\n",         # bad float
        "1 0 0 0\n1 1 1 1\n",   # duplicate index
        "1 0 0 0\n3 1 1 1\n",   # gap
    ])
    def test_malformed_points(self, text):
        with pytest.raises(FileFormatError):
            parse_points(text)
