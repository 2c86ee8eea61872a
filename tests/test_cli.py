"""End-to-end command-line tests through cli.run."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cgabp.cli import run
from cgabp.dmdgp import Instance, format_instance, format_points, generate_instance, parse_points


def test_generate_solve_verify_round_trip(tmp_path, capsys):
    inst_file = tmp_path / "i.txt"
    truth_file = tmp_path / "truth.txt"
    assert run(["generate", "--n", "6", "--seed", "7", "--extra-edges", "0",
                "--out", str(inst_file), "--truth", str(truth_file)]) == 0
    capsys.readouterr()
    assert run(["verify", str(inst_file), str(truth_file)]) == 0
    # full-precision text round trip: the ground truth verifies exactly
    reported = float(re.search(r"max violation: (\S+)", capsys.readouterr().out).group(1))
    assert reported <= 1e-12
    out_base = tmp_path / "sols.txt"
    assert run(["solve", str(inst_file), "--all", "--out", str(out_base)]) == 0
    captured = capsys.readouterr().out
    assert "solutions: 8" in captured
    written = sorted(tmp_path.glob("sols_*.txt"))
    assert len(written) == 8
    for path in written:
        assert run(["verify", str(inst_file), str(path)]) == 0


def test_solve_all_prints_128_for_clique_only_n10(tmp_path, capsys):
    inst_file = tmp_path / "i.txt"
    assert run(["generate", "--n", "10", "--seed", "7", "--extra-edges", "0",
                "--out", str(inst_file)]) == 0
    assert run(["solve", str(inst_file), "--all"]) == 0
    assert "solutions: 128" in capsys.readouterr().out


def test_single_solution_uses_plain_out_name(tmp_path):
    inst_file = tmp_path / "i.txt"
    run(["generate", "--n", "6", "--seed", "3", "--out", str(inst_file)])
    out = tmp_path / "one.txt"
    assert run(["solve", str(inst_file), "--out", str(out)]) == 0
    assert out.exists()
    assert parse_points(out.read_text()).shape == (6, 3)


def test_verify_failure_exit_code(tmp_path, capsys):
    inst_file = tmp_path / "i.txt"
    truth_file = tmp_path / "t.txt"
    run(["generate", "--n", "5", "--seed", "1", "--out", str(inst_file),
         "--truth", str(truth_file)])
    pts = parse_points(truth_file.read_text())
    pts[0] += 0.5
    truth_file.write_text("\n".join(
        f"{i+1} {p[0]} {p[1]} {p[2]}" for i, p in enumerate(pts)) + "\n")
    assert run(["verify", str(inst_file), str(truth_file)]) == 1
    assert "max violation" in capsys.readouterr().out


def test_malformed_instance_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2\n1 2 1.0\n1 nonsense\n")
    assert run(["solve", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert run(["solve", str(tmp_path / "nope.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_solve_out_to_missing_directory_is_usage_error(tmp_path, capsys):
    inst_file = tmp_path / "i.txt"
    run(["generate", "--n", "6", "--seed", "3", "--out", str(inst_file)])
    capsys.readouterr()
    target = tmp_path / "no" / "sols.txt"
    assert run(["solve", str(inst_file), "--all", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {target.with_name('sols_001.txt')}: No such file" in err
    assert "Traceback" not in err


def test_generate_to_missing_directory_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "no" / "x.txt"
    assert run(["generate", "--n", "6", "--seed", "3", "--out", str(missing)]) == 2
    assert f"error: cannot write {missing}: No such file" in capsys.readouterr().err
    inst_file = tmp_path / "i.txt"
    assert run(["generate", "--n", "6", "--seed", "3", "--out", str(inst_file),
                "--truth", str(missing)]) == 2
    assert f"error: cannot write {missing}: No such file" in capsys.readouterr().err
    # a directory in place of the file is an input error too
    assert run(["generate", "--n", "6", "--seed", "3", "--out", str(tmp_path)]) == 2
    assert f"error: cannot write {tmp_path}: Is a directory" in capsys.readouterr().err


def test_invalid_instance_prints_report(tmp_path, capsys):
    from cgabp.dmdgp import Instance
    inst = Instance(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 1.5), (2, 4, 1.5)))
    path = tmp_path / "invalid.txt"
    path.write_text(format_instance(inst))
    assert run(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "missing clique edge (1,4)" in err


def test_no_solutions_exit_code(tmp_path):
    inst, _ = generate_instance(5, 4, 0.0)
    edges = [(u, v, d) for u, v, d in inst.edges if (u, v) != (1, 4)]
    bound = sum(d for u, v, d in edges if v - u == 1 and v <= 4)
    edges.append((1, 4, bound + 1.0))
    from cgabp.dmdgp import Instance
    path = tmp_path / "inf.txt"
    path.write_text(format_instance(Instance(5, tuple(sorted(edges)))))
    assert run(["solve", str(path), "--all"]) == 1


@pytest.mark.parametrize("vertex", [5, 6, 7, 8])
def test_verify_fails_on_a_nan_vertex(tmp_path, capsys, vertex):
    # a NaN distance is the worst violation, wherever its first edge is
    inst, truth = generate_instance(8, 1, 0.0)
    truth[vertex - 1] = math.nan
    inst_file, points_file = tmp_path / "i.txt", tmp_path / "p.txt"
    inst_file.write_text(format_instance(inst))
    points_file.write_text(format_points(truth))
    assert run(["verify", str(inst_file), str(points_file)]) == 1
    first = next((u, v) for u, v, _ in inst.edges if vertex in (u, v))
    assert f"max violation: nan on edge {first}" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["1 0\n", "2 1\n1 2 1.0\n",
                                  "3 3\n1 2 1.0\n2 3 1.5\n1 3 2.0\n"])
def test_short_instances_have_one_solution(tmp_path, capsys, text):
    path = tmp_path / "short.txt"
    path.write_text(text)
    out = tmp_path / "sol.txt"
    assert run(["solve", str(path), "--all", "--out", str(out)]) == 0
    assert "solutions: 1\n  1: \n" in capsys.readouterr().out
    assert parse_points(out.read_text()).shape == (int(text[0]), 3)


def test_infeasible_triangle_reports_no_solutions(tmp_path, capsys):
    # d(1, 3) < d(2, 3) - d(1, 2): passes validation, but the first
    # triangle has no embedding
    inst = Instance(4, ((1, 2, 1.0), (2, 3, 3.0), (1, 3, 1.5), (3, 4, 1.0),
                        (2, 4, 2.5), (1, 4, 2.0)))
    path = tmp_path / "tri.txt"
    path.write_text(format_instance(inst))
    assert run(["solve", str(path)]) == 1
    assert "solutions: 0" in capsys.readouterr().out


def test_symmetric_all_on_long_pruned_chain(tmp_path, capsys):
    # n - 3 = 27 sign choices, pruned down to the mirror pair
    inst_file = tmp_path / "i.txt"
    run(["generate", "--n", "30", "--seed", "30", "--extra-edges", "0.3",
         "--out", str(inst_file)])
    assert run(["solve", str(inst_file), "--all"]) == 0
    assert "solutions: 2" in capsys.readouterr().out


def test_eps_env_override(tmp_path, monkeypatch, capsys):
    inst_file = tmp_path / "i.txt"
    truth_file = tmp_path / "t.txt"
    run(["generate", "--n", "5", "--seed", "9", "--out", str(inst_file),
         "--truth", str(truth_file)])
    monkeypatch.setenv("CGABP_EPS", "1e-15")
    pts = parse_points(truth_file.read_text())
    pts[4] += 1e-10
    truth_file.write_text("\n".join(
        f"{i+1} {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for i, p in enumerate(pts)) + "\n")
    assert run(["verify", str(inst_file), str(truth_file)]) == 1
    # eps must be a positive finite number wherever it comes from; nan
    # would turn pruning off and let every branch through
    for bad in ("not-a-number", "-1", "0", "nan", "inf"):
        monkeypatch.setenv("CGABP_EPS", bad)
        assert run(["verify", str(inst_file), str(truth_file)]) == 2
        assert run(["solve", str(inst_file)]) == 2
        assert "positive finite" in capsys.readouterr().err
        monkeypatch.setenv("CGABP_EPS", "1e-4")
        assert run(["verify", str(inst_file), str(truth_file), "--eps", bad]) == 2
        assert run(["solve", str(inst_file), "--eps", bad]) == 2
        assert "positive finite" in capsys.readouterr().err
    # a command without --eps never reads the variable
    monkeypatch.setenv("CGABP_EPS", "not-a-number")
    assert run(["generate", "--n", "5", "--seed", "9", "--out", str(inst_file)]) == 0


def test_bench_subcommand(capsys):
    assert run(["bench", "--count", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "compose.cross_check_passed=1" in out
    assert "placement.cross_check_passed=1" in out


def test_usage_error_exit_code(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2


def test_module_entry_point_runs_the_parser(tmp_path):
    # python -m cgabp.cli reaches the same parser as the console script
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "cgabp.cli", "solve", str(tmp_path / "x.txt"),
                           "--eps", "-1"], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "positive finite" in proc.stderr


def test_count_options_are_usage_errors(tmp_path, capsys):
    # argparse rejects them before any file is read or any work is done
    missing = str(tmp_path / "x.txt")
    for argv in (["solve", missing, "--max-solutions", "0"],
                 ["solve", missing, "--max-solutions", "-2"],
                 ["solve", missing, "--max-solutions", "two"],
                 ["bench", "--count", "0"],
                 ["bench", "--seed", "-1"]):
        assert run(argv) == 2
        assert "must be an integer >=" in capsys.readouterr().err


def test_max_solutions_enumerates_up_to_k(tmp_path, capsys):
    inst_file = tmp_path / "i.txt"
    run(["generate", "--n", "10", "--seed", "7", "--out", str(inst_file)])
    capsys.readouterr()
    assert run(["solve", str(inst_file), "--max-solutions", "3"]) == 0
    assert "solutions: 3" in capsys.readouterr().out
    assert run(["solve", str(inst_file), "--all", "--max-solutions", "5"]) == 0
    assert "solutions: 5" in capsys.readouterr().out
    assert run(["solve", str(inst_file)]) == 0
    assert "solutions: 1" in capsys.readouterr().out
