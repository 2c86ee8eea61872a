"""Command-line front end: generate, solve, verify, bench.

Exit statuses: 0 on success (solutions found / verification within
tolerance), 1 when there are no solutions or verification fails, 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .bench import bench_compose, bench_placement
from .dmdgp import (format_instance, format_points, generate_instance,
                    parse_instance, parse_points)
from .errors import FileFormatError, InvalidInstanceError
from .geometry import verify_realization
from .solver import SolveOptions, solve

def _eps(text: str) -> float:
    """argparse type of ``--eps``: a positive finite distance in angstroms."""
    try:
        eps = float(text)
    except ValueError:
        eps = math.nan
    if not (math.isfinite(eps) and eps > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return eps


def _int_at_least(low: int):
    """argparse type of an integer option that must be at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


def _read_instance(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return parse_instance(text)
    except FileFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(2)


def _solution_path(base: Path, index: int, total: int) -> Path:
    if total == 1:
        return base
    return base.with_name(f"{base.stem}_{index:03d}{base.suffix}")


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    opts = SolveOptions(
        eps=args.eps,
        mode="all" if args.all or args.max_solutions else "first",
        max_solutions=args.max_solutions,
    )
    try:
        solutions = solve(inst, opts)
    except InvalidInstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for u, v in exc.report.missing_clique_edges:
            print(f"  missing clique edge ({u},{v})", file=sys.stderr)
        for v in exc.report.triangle_violations:
            print(f"  triangle inequality not strict at vertex {v}", file=sys.stderr)
        return 2
    print(f"solutions: {len(solutions)}")
    for k, (_, path) in enumerate(solutions, start=1):
        print(f"  {k}: {path}")
    if args.out and solutions:
        base = Path(args.out)
        for k, (realization, _) in enumerate(solutions, start=1):
            target = _solution_path(base, k, len(solutions))
            _write_text(target, format_points(realization))
            print(f"  wrote {target}")
    return 0 if solutions else 1


def _cmd_generate(args) -> int:
    try:
        inst, truth = generate_instance(args.n, args.seed, args.extra_edges)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_text(args.out, format_instance(inst))
    print(f"wrote {args.out}: n={inst.n}, {len(inst.edges)} edges")
    if args.truth:
        _write_text(args.truth, format_points(truth))
        print(f"wrote {args.truth}")
    return 0


def _cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    try:
        points = parse_points(Path(args.realization).read_text())
    except OSError as exc:
        print(f"error: cannot read {args.realization}: {exc.strerror}", file=sys.stderr)
        return 2
    except FileFormatError as exc:
        print(f"error: {args.realization}: {exc}", file=sys.stderr)
        return 2
    try:
        max_viol, worst = verify_realization(inst, points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    where = f" on edge {worst}" if worst else ""
    print(f"max violation: {max_viol:.6e}{where}")
    return 0 if max_viol <= args.eps else 1


def _cmd_bench(args) -> int:
    for report in (bench_compose(args.count, args.seed), bench_placement(args.count, args.seed)):
        print(report.as_text())
        print(report.as_kv_lines())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    # argparse runs a string default through _eps too, for the commands that take --eps
    eps = dict(type=_eps, default=os.environ.get("CGABP_EPS", "1e-4"),
               help="largest distance error on any edge, angstroms (default: $CGABP_EPS or 1e-4)")
    parser = argparse.ArgumentParser(
        prog="cgabp",
        description="Branch & Prune solver for discretizable molecular "
                    "distance geometry, with versor-based placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--all", action="store_true", help="enumerate all realizations")
    p.add_argument("--eps", **eps)
    p.add_argument("--max-solutions", type=_int_at_least(1), default=None,
                   help="stop after this many realizations (implies --all)")
    p.add_argument("--out", default=None, help="write realizations here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("generate", help="write a synthetic instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--extra-edges", type=float, default=0.0,
                   help="fraction of non-clique pairs to add as edges")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="also write the ground-truth points")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="check a realization against an instance")
    p.add_argument("instance")
    p.add_argument("realization")
    p.add_argument("--eps", **eps)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="motor vs matrix micro-benchmarks")
    p.add_argument("--count", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def run(argv) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)  # argparse exits with 2 on usage errors
        return args.func(args)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
