"""Command-line front-end: decide / find-point / minimize / bench.

Reports are JSON documents with a stable key set across commands; bench
emits CSV.  All numbers are printed through Python's float repr, which
round-trips exactly.  No environment variables are consulted and the
solver path is deterministic, so identical invocations produce identical
reports (wall time is reported only when --timing is passed).
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import sys
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateShape, DimensionMismatch, EmptySystem, NonFiniteValue
# global_radius is not called here; it stays importable as
# cli.global_radius, a name benchmark/tracing.py wraps.
from .lp import (  # noqa: F401
    FeasibilityDecision,
    FeasibilityVerdict,
    LinearSystem,
    PointSearchOutcome,
    decide_feasibility,
    find_feasible_point,
    global_radius,
    normalize,
)
from .solver import MetastepConfig, MetastepResult, run_metasteps

# Exit codes.  Argparse's default of 2 would collide with a verdict
# code, so usage failures are remapped; internal errors get their own
# code so a traceback can never read as "infeasible" (Python's 1).
EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_STRICT_ONLY = 2
EXIT_UNDECIDED = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70

_DECIDE_EXIT = {
    FeasibilityVerdict.FEASIBLE: EXIT_OK,
    FeasibilityVerdict.INFEASIBLE_NON_STRICT: EXIT_INFEASIBLE,
    FeasibilityVerdict.INFEASIBLE_STRICT_ONLY: EXIT_STRICT_ONLY,
    FeasibilityVerdict.UNDECIDED: EXIT_UNDECIDED,
}

_POINT_EXIT = {
    PointSearchOutcome.FEASIBLE_POINT_FOUND: EXIT_OK,
    PointSearchOutcome.INFEASIBLE_PROVEN: EXIT_INFEASIBLE,
    PointSearchOutcome.UNDECIDED: EXIT_UNDECIDED,
}


class UsageError(ValueError):
    """Problem-file or flag validation failure; maps to exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _reject_constant(token: str) -> float:
    raise UsageError(f"non-finite number {token!r} in problem file")


def _as_number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{where} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise UsageError(f"{where} must be finite, got {value!r}")
    return out


def load_problem(path: str) -> Tuple[Optional[str], LinearSystem]:
    """Parse a problem file: {"A": [[...]], "b": [...], "name"?: str}."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: top level must be an object")
    if "A" not in doc or "b" not in doc:
        raise UsageError(f"{path}: required fields 'A' and 'b'")
    raw_rows = doc["A"]
    raw_offsets = doc["b"]
    if not isinstance(raw_rows, list) or not raw_rows:
        raise UsageError(f"{path}: 'A' must be a non-empty array of rows")
    if not isinstance(raw_offsets, list) or len(raw_offsets) != len(raw_rows):
        raise UsageError(f"{path}: 'b' must list one number per row of 'A'")
    rows: List[List[float]] = []
    width: Optional[int] = None
    for i, row in enumerate(raw_rows):
        if not isinstance(row, list) or not row:
            raise UsageError(f"{path}: row {i} of 'A' must be a non-empty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise UsageError(f"{path}: 'A' is not rectangular at row {i}")
        rows.append([_as_number(v, f"A[{i}][{j}]") for j, v in enumerate(row)])
    offsets = [_as_number(v, f"b[{i}]") for i, v in enumerate(raw_offsets)]
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise UsageError(f"{path}: 'name' must be a string")
    return name, LinearSystem(np.array(rows), np.array(offsets))


def _num(value) -> Optional[float]:
    if value is None:
        return None
    out = float(value)
    return out if math.isfinite(out) else None


def _vec(arr) -> Optional[List[Optional[float]]]:
    if arr is None:
        return None
    return [_num(v) for v in np.asarray(arr, dtype=float).ravel()]


def _parse_x0(text: Optional[str], dim: int) -> np.ndarray:
    if text is None:
        return np.zeros(dim)
    try:
        values = [float(token) for token in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"--x0 must be comma-separated numbers: {exc}") from exc
    if len(values) != dim:
        raise UsageError(f"--x0 has {len(values)} entries, problem needs {dim}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError("--x0 entries must be finite")
    return np.asarray(values)


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


# Each flag value argparse cannot check by type: (attribute, test, message).
_FLAG_CHECKS = (
    ("tol", _positive_finite, "--tol must be a positive finite number"),
    ("metasteps", lambda v: v >= 1, "--metasteps must be at least 1"),
    ("eps", _positive_finite, "--eps must be a positive finite number"),
    ("radius", _positive_finite, "--radius must be a positive finite number"),
    ("radius_growth", lambda v: math.isfinite(v) and v >= 1.0,
     "--radius-growth must be a finite number of at least 1"),
)


def _check_flags(args: argparse.Namespace) -> None:
    """Reject values of the command's flags that no run can use."""
    for key, ok, message in _FLAG_CHECKS:
        if hasattr(args, key) and not ok(getattr(args, key)):
            raise UsageError(message)
    if hasattr(args, "radius") and not args.eps < args.radius:
        raise UsageError("--eps must be smaller than --radius")


_CONFIG_KEYS = ("eps", "tol", "radius", "metasteps", "radius_growth", "x0", "trace")


def _config_echo(args: argparse.Namespace) -> dict:
    """The command's flag values; null for every flag it does not take."""
    return {key: getattr(args, key, None) for key in _CONFIG_KEYS}


def _write_trace(path: str, run: Optional[MetastepResult]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in run.trace if run is not None else ():
                handle.write(
                    json.dumps(
                        {
                            "query": rec.query,
                            "iteration": rec.iteration,
                            "center": _vec(rec.center),
                            "value": _num(rec.value),
                            "cut": rec.cut,
                            "depth": _num(rec.depth),
                            "log_volume": _num(rec.log_volume),
                        },
                        allow_nan=False,
                    )
                    + "\n"
                )
    except OSError as exc:
        raise UsageError(f"cannot write trace {path}: {exc.strerror or exc}") from exc


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2, allow_nan=False) + "\n")


def _report_skeleton(command: str, name: Optional[str], n: int, m: int,
                     args: argparse.Namespace) -> dict:
    return {
        "command": command,
        "name": name,
        "n": n,
        "m": m,
        "verdict": None,
        "point": None,
        "value": None,
        "certificate": None,
        "d_star": None,
        "radius": None,
        "level_queries": 0,
        "ellipsoid_iters": 0,
        "bracket": None,
        "depth": None,
        "wall_ms": None,
        "config": _config_echo(args),
        "trace_file": args.trace,
    }


def _finish(report: dict, args: argparse.Namespace, started: float,
            run: Optional[MetastepResult]) -> None:
    """Fill in the run's level queries, iterations and proven [lb, U]
    (an lb of -inf, nothing proven, reads null), the wall time under
    --timing, then write the --trace file and print the report.  Without
    a run the skeleton's zeros and null stay, and the trace is empty."""
    if run is not None:
        report["level_queries"] = run.level_queries
        report["ellipsoid_iters"] = run.iterations
        report["bracket"] = [_num(bound) for bound in run.alpha_bracket]
    if args.timing:
        report["wall_ms"] = (time.perf_counter() - started) * 1000.0
    if args.trace:
        _write_trace(args.trace, run)
    _emit(report)


def _decide(system: LinearSystem, tol: float, trace: bool = False) -> FeasibilityDecision:
    """normalize, then decide_feasibility.  A system whose rows are all
    vacuous is Feasible without a run (report None)."""
    try:
        norm_sys = normalize(system)
    except EmptySystem:
        return FeasibilityDecision(FeasibilityVerdict.FEASIBLE, None, math.inf)
    return decide_feasibility(norm_sys, tol=tol, trace=trace)


def cmd_decide(args: argparse.Namespace) -> int:
    name, system = load_problem(args.path)
    report = _report_skeleton("decide", name, system.n, system.m, args)
    started = time.perf_counter()
    decision = _decide(system, args.tol, bool(args.trace))
    report["verdict"] = decision.verdict.value
    report["certificate"] = _vec(decision.certificate)
    report["d_star"] = _num(decision.d_star)
    _finish(report, args, started, decision.report)
    return _DECIDE_EXIT[decision.verdict]


def cmd_find_point(args: argparse.Namespace) -> int:
    name, system = load_problem(args.path)
    report = _report_skeleton("find-point", name, system.n, system.m, args)
    started = time.perf_counter()
    try:
        norm_sys = normalize(system)
    except EmptySystem:
        report["verdict"] = PointSearchOutcome.FEASIBLE_POINT_FOUND.value
        report["point"] = _vec(np.zeros(system.n))
        report["value"] = 0.0
        _finish(report, args, started, None)
        return EXIT_OK

    result = find_feasible_point(norm_sys, args.tol, trace=bool(args.trace))
    report["verdict"] = result.outcome.value
    report["point"] = _vec(result.point)
    report["value"] = _num(result.f_value)
    report["certificate"] = _vec(result.certificate)
    report["radius"] = _num(result.radius_used)
    _finish(report, args, started, result.metastep_report)
    return _POINT_EXIT[result.outcome]


def cmd_minimize(args: argparse.Namespace) -> int:
    name, system = load_problem(args.path)
    x0 = _parse_x0(args.x0, system.n)
    cfg = MetastepConfig(
        radius=args.radius,
        level_tolerance=args.eps,
        max_metasteps=args.metasteps,
        radius_growth=args.radius_growth,
    )
    try:
        cfg.check_radii()
    except ValueError as exc:
        raise UsageError(f"--radius, --radius-growth and --metasteps: {exc}") from exc
    report = _report_skeleton("minimize", name, system.n, system.m, args)
    report["radius"] = args.radius
    started = time.perf_counter()
    result = run_metasteps(system, x0, cfg, trace=bool(args.trace))
    report["verdict"] = result.status.value
    report["point"] = _vec(result.best_point)
    report["value"] = _num(result.best_value)
    report["depth"] = _num(result.depth)
    _finish(report, args, started, result)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.dir):
        raise UsageError(f"{args.dir} is not a directory")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["name", "n", "m", "verdict", "level_queries", "ellipsoid_iters", "wall_ms"]
    )
    for path in sorted(glob.glob(os.path.join(args.dir, "*.json"))):
        try:
            name, system = load_problem(path)
        except UsageError as exc:
            print(f"epicut: skipping {path}: {exc}", file=sys.stderr)
            continue
        label = name or os.path.splitext(os.path.basename(path))[0]
        started = time.perf_counter()
        decision = _decide(system, args.tol)
        wall_ms = (time.perf_counter() - started) * 1000.0
        run = decision.report
        writer.writerow([
            label, system.n, system.m, decision.verdict.value,
            run.level_queries if run else 0, run.iterations if run else 0,
            f"{wall_ms:.3f}",
        ])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epicut",
        description="Convex feasibility and minimization via ellipsoid cuts.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # Each command takes only the flags it reads; any other is a usage error.
    tol_flag = _Parser(add_help=False)
    tol_flag.add_argument("--tol", type=float, default=1e-7,
                          help="certificate / feasibility tolerance (default 1e-7)")

    run_flags = _Parser(add_help=False)
    run_flags.add_argument("--trace", metavar="FILE", default=None,
                           help="write per-iteration trace records to FILE as JSON lines")
    run_flags.add_argument("--timing", action="store_true",
                           help="include wall time in the report (breaks byte determinism)")

    p_decide = sub.add_parser("decide", parents=[tol_flag, run_flags],
                              help="decide feasibility of A x + b <= 0")
    p_decide.add_argument("path", help="problem file (JSON)")
    p_decide.set_defaults(handler=cmd_decide)

    p_point = sub.add_parser("find-point", parents=[tol_flag, run_flags],
                             help="search for a feasible point")
    p_point.add_argument("path", help="problem file (JSON)")
    p_point.set_defaults(handler=cmd_find_point)

    p_min = sub.add_parser("minimize", parents=[run_flags],
                           help="minimize the max-affine function in the file")
    p_min.add_argument("path", help="max-affine function file (JSON)")
    p_min.add_argument("--eps", type=float, default=1e-6,
                       help="width of the proven bracket on the minimum (default 1e-6)")
    p_min.add_argument("--radius", type=float, required=True, help="search radius")
    p_min.add_argument("--metasteps", type=int, default=16,
                       help="metastep budget (default 16)")
    p_min.add_argument("--x0", metavar="CSV", default=None,
                       help="start point as comma-separated numbers (default origin)")
    p_min.add_argument("--radius-growth", type=float, default=1.0,
                       help="radius multiplier between metasteps (default 1.0)")
    p_min.set_defaults(handler=cmd_minimize)

    p_bench = sub.add_parser("bench", parents=[tol_flag],
                             help="decide every problem in a directory; print CSV")
    p_bench.add_argument("dir", help="directory of problem files")
    p_bench.set_defaults(handler=cmd_bench)
    return parser


# The parser main() reuses; built by the first call, not at import, so
# that importing the module stays cheap.  Set it to None to rebuild.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; may be called repeatedly in one process."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        _check_flags(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"epicut: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateShape, DimensionMismatch, NonFiniteValue) as exc:
        print(f"epicut: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
