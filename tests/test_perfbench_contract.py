"""The benchmark harness in perfbench/ still runs against the program.

Each workload of perfbench/workloads.py is built at one seed and sent one
untraced and one traced request through its correctness gate, and the
per-layer metrics are computed from the trace.  This catches, without a
30 s benchmark run, a solver change that makes a set-up request fail, a
module attribute the tracer wraps that is gone, a ``prune_check`` that
is no longer called once per search node (``solver.nodes`` counts it), or
a ``cgabp.bench`` kernel that every run times, and cross-checks, first.
The scripts ``gc_probe.py`` and ``solve_random.py`` (whose digest two
checkouts compare for identical output) are run on small inputs too.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from cgabp.dmdgp import parse_instance

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_requests_pass_their_gate(name):
    workload = workloads.WORKLOADS[name]
    cases, setup_failures = workload.build(SEED)
    assert cases and not setup_failures, dict(setup_failures)
    case = cases[0]
    sols, texts = workloads.request(case, workload.mode, workload.use_symmetry)
    assert workload.gate(case, sols, texts) is None
    tracer = tracing.Tracer()
    with tracer.installed(rid=0):
        sols, texts = workloads.request(case, workload.mode, workload.use_symmetry)
    assert workload.gate(case, sols, texts) is None
    metrics = tracing.layer_metrics(tracer.per_request())
    nodes = metrics["solver.nodes"][0]
    if name == "enum":
        # every vertex of an unpruned chain is a symmetry vertex: one
        # descent, and every - subtree is mirrored instead of walked
        assert nodes == case.n - 3
    else:
        # at least one descent from vertex 4 to vertex n
        assert nodes >= case.n - 3
    assert 0.0 < metrics["solver.prune_accept_ratio"][0] <= 1.0
    assert metrics["dmdgp.edges"][0] == len(parse_instance(case.text).edges)


def load_script(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_metrics_are_positive_and_finite():
    # every perfbench/run.py run times the cgabp.bench kernels, and runs
    # their cross-checks, before its loop; a failure there exits 1
    run = load_script(ROOT / "perfbench" / "run.py", "perfbench_run")
    metrics = run.kernel_metrics(SEED)
    assert set(metrics) == {f"bench.{op}_us.{rep}" for op in ("placement", "compose")
                            for rep in ("versor", "matrix")}
    for value, unit in metrics.values():
        assert unit == "us" and math.isfinite(value) and value > 0


def test_gc_probe_reports_passes_by_generation(capsys):
    probe = load_script(ROOT / "scripts" / "gc_probe.py", "gc_probe")
    assert probe.main(["--workload", "symmetric", "--seed", str(SEED), "--seconds", "0.3"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["requests"] > 0 and report["failed"] == 0
    assert set(report["passes"]) == set(report["passes_in_requests"]) == {"0", "1", "2"}
    assert report["slowest"] == min(11, report["requests"])


def test_solve_random_digest_and_table_modes_pass(capsys):
    # the identity gate quoted for output-preserving changes, and its table
    # of oracle, mirror, round-trip and ingestion checks
    script = load_script(ROOT / "scripts" / "solve_random.py", "solve_random")
    assert script.main(["--digest", "--sizes", "5", "8", "--seed", "0", "7",
                        "--extra-edges", "0", "0.3"]) == 0
    digest = capsys.readouterr().out.strip()
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert script.main(["--sizes", "12", "--extra-edges", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "matrix oracle: 0 of 1 instances differ" in out
    assert "ingest vs generate: 0 of 1 instances differ" in out
