"""epicut benchmark: seeded workloads driven through ``epicut.cli.main``.

    python3 benchmark/run.py --workload lp-corpus --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --check-fidelity

Run from the repository root; the package is imported from ``src/``.
One process, one caller, one CLI call at a time (closed loop).  A run
repeats the workload's fixed list of calls for as many whole passes as
fit in ``--seconds`` (at least one) and checks every output against a
reference.  ``--trace 1`` runs one untraced pass, then the same calls
with span tracing, and reports per-layer metrics instead of end-to-end
ones.  The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: with 2 cores, OpenBLAS
# threads at lifted dimension ~49 would measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9

# Layer times that are zero by design on some workload: the lp layer on
# planted-minima, global_radius on m-ladder, side constraints on
# planted-minima.  They are printed but left out of the JSON line, which
# keeps every other layer time and every count.
PER_LAYER_TIMES_SOMETIMES_ZERO = {
    "lp.normalize_s",
    "lp.decide_feasibility.self_s",
    "lp.global_radius_s",
    "lp.find_feasible_point_s",
    "oracles.constraint_check_s",
}


def _fail_setup(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "epicut", "cli.py")):
    _fail_setup(f"no epicut sources under {SRC}; run from a repository checkout")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import numpy as np  # noqa: E402

import epicut  # noqa: E402
import epicut.cli  # noqa: E402

if os.path.dirname(os.path.abspath(epicut.__file__)) != os.path.join(SRC, "epicut"):
    _fail_setup(f"imported epicut from {epicut.__file__}, not from {SRC}")

from calibration import Calibrator  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402


# ------------------------------------------------------------ statistics


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile: always one of the measured values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def quantile(values: List[float], p: float) -> float:
    """Interpolated percentile (numpy's default method)."""
    return float(np.percentile(values, p))


def reportable(n: int) -> List[int]:
    """p50, and p90 only with at least ten samples beyond it."""
    return [50] + ([90] if n >= 100 else [75] if n >= 40 else [])


# ------------------------------------------------------------ execution


@dataclass
class Result:
    code: Optional[int]
    seconds: float
    report: Optional[dict]
    error: Optional[str]
    span: Tuple[float, float]  # perf_counter at the call's start and end


def invoke(argv: List[str], tracer: Optional[Tracer] = None, item: int = -1,
           calibrator: Optional[Calibrator] = None) -> Result:
    """One closed-loop call of epicut.cli.main; stdout holds the report.
    Calibration kernel runs during the call are not counted in its time."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = (tracer.call(item, epicut.cli.main, argv) if tracer
                    else epicut.cli.main(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            error = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=err)
        ended = time.perf_counter()
    seconds = ended - started
    if calibrator:
        seconds -= calibrator.kernel_s_between(started, ended)
    report = None
    if error is None:
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            error = f"exit {code} without a JSON report"
    return Result(code, seconds, report, error, (started, ended))


def write_problems(workload: Workload, directory: str) -> Dict[str, str]:
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for problem in workload.problems:
        path = os.path.join(directory, problem.name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"name": problem.name, "A": problem.rows.tolist(),
                       "b": problem.offsets.tolist()}, handle)
        paths[problem.name] = path
    return paths


def measure_setup(workload: Workload, directory: str):
    """Fresh interpreter importing epicut.cli, plus writing the problem
    files; repeated.  Returns the median and the median scaled like the
    solve times, from two kernel runs before each repeat (none runs
    during one: the kernel and the child would share the cores)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    calibrator = Calibrator()
    times = []
    paths = None
    for _ in range(SETUP_REPEATS):
        calibrator.sample()
        calibrator.sample()
        shutil.rmtree(directory, ignore_errors=True)
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import epicut.cli"],
                       env=env, cwd=ROOT, check=True)
        paths = write_problems(workload, directory)
        times.append(time.perf_counter() - started)
    raw = statistics.median(times)
    return raw, raw * calibrator.scale, paths


def argv_for(op: Op, paths: Dict[str, str]) -> List[str]:
    return [op.command, paths[op.problem.name]] + op.flags


def run_pass(workload: Workload, paths, tracer: Optional[Tracer] = None,
             calibrator: Optional[Calibrator] = None) -> List[Result]:
    return [invoke(argv_for(op, paths), tracer, i, calibrator)
            for i, op in enumerate(workload.ops)]


def run_passes(workload: Workload, paths, seconds: float,
               calibrator: Optional[Calibrator] = None) -> List[List[Result]]:
    """Whole passes while the next one is expected to fit; at least one."""
    passes = []
    spent = 0.0
    while not passes or spent + spent / len(passes) <= seconds:
        started = time.perf_counter()
        passes.append(run_pass(workload, paths, calibrator=calibrator))
        spent += time.perf_counter() - started
    return passes


def item_medians(times: List[List[float]]) -> List[float]:
    """Each call's latency as the median over the passes."""
    return [statistics.median(column) for column in zip(*times)]


def counts(result: Result):
    if result.report is None:
        return None
    return result.report.get("ellipsoid_iters"), result.report.get("level_queries")


def check_pass(workload: Workload, results: List[Result], reference: List[Result]):
    """Per-op failure reasons: raised, exit 3/64, wrong output, or counts
    that differ from the reference pass."""
    failures = []
    for op, res, ref in zip(workload.ops, results, reference):
        if res.error is not None:
            reason = res.error
        elif res.code in (3, 64):
            reason = f"exit {res.code}"
        else:
            reason = workload.check(op, res.code, res.report)
        if reason is None and counts(res) != counts(ref):
            reason = f"counts {counts(res)} differ from the first pass {counts(ref)}"
        if reason is not None:
            failures.append((op.label, reason))
    return failures


# ------------------------------------------------------------- reporting


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without dict output
        blas_text = "unknown"
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas_text.replace(' ', '-')} nproc={os.cpu_count()} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def named_metrics(workload: Workload, times: List[List[float]]):
    """The per-command (or per-rung) metrics, as (name, value, unit, n),
    from each pass's call latencies."""
    rows = []
    for stem, groups in workload.stems.items():
        if workload.rung_totals:
            per_pass = [sum(t for op, t in zip(workload.ops, row) if op.group in groups)
                        for row in times]
            rows.append((stem, statistics.median(per_pass), "s", len(per_pass)))
            continue
        values = [t for row in times for op, t in zip(workload.ops, row)
                  if op.group in groups]
        shown = reportable(len(values))
        for p in shown:
            rows.append((f"{stem}_ms_p{p}", percentile(values, p) * 1e3, "ms", len(values)))
        if 90 not in shown:
            rows.append((f"{stem}_ms_p90", None, "ms", len(values)))
    return rows


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    text = "not reported" if value is None else repr(value)
    print(f"metric {name} = {text} {unit}{'  (' + note + ')' if note else ''}")


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ----------------------------------------------------------------- modes


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.corpus_seed)
    work_dir = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-{os.getpid()}")
    print(f"# epicut benchmark workload={workload.name} seed={args.seed} "
          f"corpus_seed={workload.corpus_seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {environment()}")
    try:
        setup_raw_s, setup_s, paths = measure_setup(workload, work_dir)
        if args.trace:
            calibrator = None
            passes = run_passes(workload, paths, 0)
        else:
            with Calibrator() as calibrator:
                passes = run_passes(workload, paths, args.seconds, calibrator)
        traced = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(workload, paths, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = []
    for results in passes + ([traced] if traced else []):
        failures.extend(check_pass(workload, results, passes[0]))
    attempted = sum(len(results) for results in passes + ([traced] if traced else []))
    completed = [res for results in passes for res in results if res.error is None]
    solve_s = sum(res.seconds for results in passes for res in results)
    latencies = [res.seconds for results in passes for res in results]

    first = [counts(res) for res in passes[0] if counts(res)]
    print(f"# {len(passes)} pass(es) of {len(workload.ops)} calls; "
          f"solve time {solve_s!r} s; per pass {sum(c[0] for c in first)} ellipsoid "
          f"iterations and {sum(c[1] for c in first)} level queries in the reports")
    # Scaled like the JSON figures on an untraced run; raw on a traced one.
    if calibrator:
        times = [[res.seconds * calibrator.scale_for(*res.span) for res in results]
                 for results in passes]
    else:
        times = [[res.seconds for res in results] for results in passes]
    kind = "scaled" if calibrator else "raw"
    for name, value, unit, n in named_metrics(workload, times):
        print_metric(name, value, unit, f"{kind}, n={n}" + (
            "" if value is not None else ", p90 needs 100 samples"))
    print_metric("failed_frac", len(failures) / attempted, "ratio",
                 f"{len(failures)}/{attempted}")
    for label, reason in failures:
        print(f"failed {label}: {reason}")

    if args.trace:
        untraced_s = sum(res.seconds for res in passes[0])
        traced_s = sum(res.seconds for res in traced)
        methods = Counter(res.report.get("radius_method") for res in traced
                          if res.report is not None and res.report.get("radius_method"))
        layer = tracer.layer_metrics(methods)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.npz")
        tracer.save(span_file, [op.label for op in workload.ops])
        print(f"# {len(tracer.name)} spans written to {os.path.relpath(span_file, ROOT)}")
        print_metric("trace.overhead_s", traced_s - untraced_s, "s",
                     f"traced {traced_s!r} s - untraced {untraced_s!r} s")
        report_counts = [counts(res) for res in traced if counts(res)]
        print_metric("report.ellipsoid_iters", sum(c[0] for c in report_counts), "count",
                     "traced pass; item for item equal to the untraced pass"
                     if not failures else "see failures")
        print_metric("report.level_queries", sum(c[1] for c in report_counts), "count")
        for name, (value, unit) in layer.items():
            print_metric(name, value, unit)
        metrics = {k: v for k, v in layer.items()
                   if k not in PER_LAYER_TIMES_SOMETIMES_ZERO}
    else:
        # Only run-wide figures are returned: the per-command ones above
        # differ between workloads.  Each call counts with its median
        # latency over the passes, scaled to the reference machine
        # speed (calibration.py).
        medians = item_medians(times)
        print_metric("solves_per_s", len(completed) / solve_s, "1/s",
                     f"raw, n={len(latencies)}")
        print_metric("solve_ms_p90", quantile(latencies, 90) * 1e3, "ms",
                     f"raw, n={len(latencies)}")
        print_metric("calibration_s", calibrator.mean_s, "s",
                     f"mean of {len(calibrator.times)} kernel runs; "
                     f"run-wide scale {calibrator.scale!r}")
        print_metric("setup_raw_s", setup_raw_s, "s", f"median of {SETUP_REPEATS}")
        metrics = {
            "setup_s": (setup_s, "s"),
            "norm_solves_per_s": (len(medians) / sum(medians), "1/s"),
            "norm_solve_ms_p90": (quantile(medians, 90) * 1e3, "ms"),
        }
        for name, (value, unit) in metrics.items():
            print_metric(name, value, unit, f"{len(medians)} calls, median of "
                         f"{len(passes)} pass(es) each" if name.startswith("norm")
                         else f"median of {SETUP_REPEATS}, scaled")
    emit(not failures, attempted, len(failures), metrics)
    return 0


def check_fidelity(_args) -> int:
    """Default corpora against criteria 06 and 07 of the acceptance tests."""
    from workloads import (
        LP_CORPUS_SEED, MINIMA_CORPUS_SEED, criterion06_instances, criterion07_systems,
        planted_minima,
    )
    from epicut.lp import LinearSystem, normalize

    sys.path.insert(0, ROOT)
    from tests.test_acceptance import lp_corpus, minimization_runs

    ok = True
    work_dir = os.path.join(OUT_DIR, f"fidelity-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        reference, _ = lp_corpus()
        verdicts = Counter()
        iters = 0
        for i, (rows, offsets) in enumerate(criterion07_systems(LP_CORPUS_SEED, 200)):
            ref_sys, decision, _ = reference[i]
            ours = normalize(LinearSystem(rows, offsets))
            same = (np.array_equal(ours.rows, ref_sys.rows)
                    and np.array_equal(ours.offsets, ref_sys.offsets))
            path = os.path.join(work_dir, "lp.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"A": rows.tolist(), "b": offsets.tolist()}, handle)
            res = invoke(["decide", path])
            verdict = res.report["verdict"]
            verdicts[verdict] += 1
            iters += res.report["ellipsoid_iters"]
            if not same or verdict != decision.verdict.value:
                ok = False
                print(f"lp system {i}: same system {same}, verdict {verdict} "
                      f"vs criterion 07 {decision.verdict.value}")
        ref_iters = sum(r.iterations for _, d, _ in reference
                        for r in (d.phase_one, d.report) if r is not None)
        print(f"lp-corpus: 200 systems, verdicts {dict(verdicts)}, "
              f"{iters} ellipsoid iterations (criterion 07: {ref_iters})")
        ok &= iters == ref_iters

        runs, _ = minimization_runs()
        ours = criterion06_instances(MINIMA_CORPUS_SEED, len(runs))
        workload = planted_minima(0)
        paths = write_problems(workload, work_dir)
        near = {op.problem.name: op for op in workload.ops}
        matched = 0
        for i, ((f, true_min, _, full, _), (rows, offsets, ours_min, _, _)) in enumerate(
                zip(runs, ours)):
            same = (np.array_equal(f.rows, rows) and np.array_equal(f.offsets, offsets)
                    and true_min == ours_min)
            value_same = True
            op = near.get(f"n2-{i:03d}-near")
            if op is not None:
                res = invoke(argv_for(op, paths))
                value_same = res.report["value"] == full.best_value
            matched += same and value_same
        print(f"planted-minima: {matched}/{len(runs)} n=2 instances equal criterion 06's "
              "(near starts: same minimize value)")
        ok &= matched == len(runs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("fidelity: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="presentation seed; 0 is the corpus as generated")
    parser.add_argument("--corpus-seed", type=int, default=None,
                        help="problem seed (default: the criterion seeds)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-fidelity", action="store_true")
    args = parser.parse_args(argv)
    if args.check_fidelity:
        return check_fidelity(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
