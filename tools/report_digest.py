"""Digest of every CLI output on the benchmark workloads.

    python3 tools/report_digest.py --seeds 0 1
    python3 tools/report_digest.py --seeds 0 1 --against ../parent/src

Runs each call of the lp-corpus, m-ladder and planted-minima workloads
(``benchmark/workloads.py``, read only) in-process through
``epicut.cli.main`` with ``--trace``, at every presentation seed given.
Problem files and traces are written under a temporary working
directory and named relative to it, so the outputs do not depend on
where the tool runs.  For each workload it prints one sha256 over every
call's exit code, stdout, stderr and trace file, with the number of
calls and their total ellipsoid iterations.  Two checkouts whose
reports, exit codes and traces are byte-identical print the same lines.
The package run is this checkout's, under ``src``.

``--against SRC`` also compares this checkout's package (the change)
with the one under SRC (the parent).  Both are imported, under distinct
names, into one process, and each call is run by both back to back, in
an order that alternates from call to call, ``PASSES`` times over the
workload.  After each workload's digest line it prints a second line:
whether every output of the two was byte-identical and the change's
share of the parent's time in ``cli.main``, summed over the calls.
Timing both sides in the same moment cancels the drift in speed between
separate processes.
"""

from __future__ import annotations

import os

# One BLAS thread, as in benchmark/run.py: threaded reductions could
# change last bits between hosts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("lp-corpus", "m-ladder", "planted-minima")
# Passes over each workload with --against.
PASSES = 3


def _call(main, argv):
    """(exit code, stdout, stderr, seconds in main) of one in-process
    CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a raising call is part of the digest
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _write_problems(workload) -> None:
    for problem in workload.problems:
        with open(problem.name + ".json", "w", encoding="utf-8") as handle:
            json.dump({"name": problem.name, "A": problem.rows.tolist(),
                       "b": problem.offsets.tolist()}, handle)


def _traced_call(main, seed, op):
    """(outputs, ellipsoid iterations) of one call with ``--trace``;
    outputs are the bytes the digest covers."""
    trace = "trace.jsonl"
    argv = [op.command, op.problem.name + ".json"] + op.flags + ["--trace", trace]
    code, out, err, _ = _call(main, argv)
    try:
        with open(trace, "rb") as handle:
            traced = handle.read()
        os.remove(trace)
    except OSError:
        traced = b""
    parts = (f"{seed} {op.label} {code}\n{out}\n{err}\n".encode(), traced)
    return parts, _report_iters(out)


def _report_iters(out: str) -> int:
    """The ellipsoid iterations a report states; 0 for any other output."""
    try:
        return json.loads(out)["ellipsoid_iters"]
    except (ValueError, KeyError, TypeError):
        return 0


def _hash(sha, parts) -> None:
    for part in parts:
        sha.update(len(part).to_bytes(8, "little"))
        sha.update(part)


def digest(workload_fn, seeds, main):
    """(sha256 hex, calls, total ellipsoid iterations) over all seeds.
    Runs in the current working directory."""
    sha = hashlib.sha256()
    calls = iters = 0
    for seed in seeds:
        workload = workload_fn(seed)
        _write_problems(workload)
        for op in workload.ops:
            parts, op_iters = _traced_call(main, seed, op)
            _hash(sha, parts)
            calls += 1
            iters += op_iters
    return sha.hexdigest(), calls, iters


def paired(workload_fn, seeds, change, parent):
    """(``digest`` of the change, identical, change/parent time) of
    ``PASSES`` passes over all seeds, each call run by both mains back
    to back.  Each pass times calls without ``--trace``, as the
    benchmark makes them, and compares their outputs; the first also
    compares the traced calls' outputs, trace files included, and
    digests the change's.  Runs in the current working directory."""
    mains = (change, parent)
    spent = [0.0, 0.0]
    identical = True
    sha = hashlib.sha256()
    calls = iters = 0
    for rep in range(PASSES):
        for seed in seeds:
            workload = workload_fn(seed)
            _write_problems(workload)
            for op in workload.ops:
                argv = [op.command, op.problem.name + ".json"] + op.flags
                outputs = [None, None]
                first = (calls + rep) % 2
                for side in (first, 1 - first):
                    code, out, err, seconds = _call(mains[side], argv)
                    spent[side] += seconds
                    outputs[side] = [code, out, err]
                    if rep == 0:
                        outputs[side].append(_traced_call(mains[side], seed, op))
                identical = identical and outputs[0] == outputs[1]
                if rep == 0:
                    parts, op_iters = outputs[0][3]
                    _hash(sha, parts)
                    iters += op_iters
                calls += 1
    return (sha.hexdigest(), calls // PASSES, iters), identical, spent[0] / spent[1]


def _load(src: str, name: str):
    """The epicut package under ``src``, imported as ``name``; returns its
    cli module."""
    package = os.path.join(os.path.abspath(src), "epicut")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0],
                        help="presentation seeds (default 0)")
    parser.add_argument("--against", metavar="SRC",
                        help="directory holding the parent's epicut package: "
                             "compare the two call by call")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark")]
    import epicut.cli
    from workloads import WORKLOADS

    parent_cli = _load(args.against, "epicut_parent") if args.against else None
    seeds = ",".join(map(str, args.seeds))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name in WORKLOAD_NAMES:
                if parent_cli is None:
                    summary = digest(WORKLOADS[name], args.seeds, epicut.cli.main)
                else:
                    summary, same, ratio = paired(
                        WORKLOADS[name], args.seeds, epicut.cli.main, parent_cli.main)
                sha, calls, iters = summary
                print(f"{name} seeds={seeds} calls={calls} ellipsoid_iters={iters} "
                      f"sha256={sha}", flush=True)
                if parent_cli is not None:
                    print(f"{name} against parent: passes={PASSES} "
                          f"identical={'yes' if same else 'NO'} "
                          f"change/parent={ratio:.3f}", flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
