"""Benchmark harness tests: cross-checks, storage accounting, determinism."""

import numpy as np
import pytest

from cgabp import bench, ga, solver
from cgabp.bench import (_random_motor_and_matrix, _random_placement_inputs,
                         bench_compose, bench_placement)

from conftest import einsum_compose


def test_compose_report_fields():
    report = bench_compose(50, seed=1)
    assert report.op_name == "compose"
    assert report.iterations == 50
    assert all(t >= 0 for t in report.total_time.values())
    assert report.time_per_op == {k: t / 50 for k, t in report.total_time.items()}


def test_placement_report_fields():
    report = bench_placement(30, seed=1)
    assert report.op_name == "placement"
    assert report.iterations == 30
    assert report.time_per_op["matrix"] == report.total_time["matrix"] / 30


def test_compose_motor_floats_matches_dense_product(rng):
    for _ in range(50):
        a = rng.uniform(-1, 1, 8)
        b = rng.uniform(-1, 1, 8)
        product = np.array(solver.compose_motor_floats(a.tolist(), b.tolist()))
        assert product.tobytes() == einsum_compose(a, b).tobytes()
        dense = ga.geometric_product(ga.motor_from_coeffs(a), ga.motor_from_coeffs(b))
        expected, residual = ga.motor_coeffs(dense)
        assert residual <= 1e-12  # the support is closed under the product
        assert np.max(np.abs(product - expected)) <= 1e-12


def test_motor_and_matrix_are_the_same_motion(rng):
    for _ in range(20):
        coords, mat = _random_motor_and_matrix(rng)
        p = rng.uniform(-3, 3, 3)
        m = ga.motor_from_coeffs(coords)
        from cgabp.conformal import embed_point, extract_point
        via_motor = extract_point(ga.geometric_product(
            ga.geometric_product(m, embed_point(p)), ga.reverse(m)))
        via_matrix = (mat @ np.append(p, 1.0))[:3]
        assert np.max(np.abs(via_motor - via_matrix)) <= 1e-10


def test_input_streams_are_seed_deterministic():
    a = [_random_placement_inputs(np.random.default_rng(5)) for _ in range(3)]
    b = [_random_placement_inputs(np.random.default_rng(5)) for _ in range(3)]
    for (ca, cb) in zip(a, b):
        for xa, xb in zip(ca, cb):
            assert np.array_equal(xa, xb)
    ma = _random_motor_and_matrix(np.random.default_rng(5))
    mb = _random_motor_and_matrix(np.random.default_rng(5))
    assert np.array_equal(ma[0], mb[0]) and np.array_equal(ma[1], mb[1])


def test_report_formats():
    report = bench_compose(10, seed=0)
    text = report.as_text()
    assert "versor" in text and "matrix" in text and "cross-check: ok" in text
    kv = report.as_kv_lines()
    assert "compose.storage_coefficients_versor=8" in kv
    assert "compose.storage_coefficients_matrix=12" in kv
    assert "compose.cross_check_passed=1" in kv


def test_failed_cross_check_raises(monkeypatch):
    monkeypatch.setattr(bench, "compose_motor_floats", lambda a, b: tuple(a))
    with pytest.raises(AssertionError, match="composition cross-check failed"):
        bench_compose(5)
    monkeypatch.setattr(bench, "matrix_place_next", lambda a, b, c, *_: (a, b))
    with pytest.raises(AssertionError, match="placement cross-check failed"):
        bench_placement(5)


def test_bad_count_rejected():
    with pytest.raises(ValueError):
        bench_compose(0)
    with pytest.raises(ValueError):
        bench_placement(-1)

