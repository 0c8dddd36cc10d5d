"""Digest of every CLI output on the benchmark workloads.

    python3 tools/report_digest.py --seeds 0 1
    python3 tools/report_digest.py --seeds 0 1 --src ../parent/src

Runs each call of the lp-corpus, m-ladder and planted-minima workloads
(``benchmark/workloads.py``, read only) in-process through
``epicut.cli.main`` with ``--trace``, at every presentation seed given.
Problem files and traces are written under a temporary working
directory and named relative to it, so the outputs do not depend on
where the tool runs.  For each workload it prints one sha256 over every
call's exit code, stdout, stderr and trace file, with the number of
calls and their total ellipsoid iterations.  Two checkouts whose
reports, exit codes and traces are byte-identical print the same lines.
``--src`` picks the package to run (default: this checkout's ``src``).
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
import io
import json
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("lp-corpus", "m-ladder", "planted-minima")


def _call(main, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a raising call is part of the digest
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digest(workload_fn, seeds, main):
    """(sha256 hex, calls, total ellipsoid iterations) over all seeds.
    Runs in the current working directory."""
    sha = hashlib.sha256()
    calls = iters = 0
    for seed in seeds:
        workload = workload_fn(seed)
        for problem in workload.problems:
            with open(problem.name + ".json", "w", encoding="utf-8") as handle:
                json.dump({"name": problem.name, "A": problem.rows.tolist(),
                           "b": problem.offsets.tolist()}, handle)
        for op in workload.ops:
            trace = "trace.jsonl"
            argv = [op.command, op.problem.name + ".json"] + op.flags + ["--trace", trace]
            code, out, err = _call(main, argv)
            try:
                with open(trace, "rb") as handle:
                    traced = handle.read()
                os.remove(trace)
            except OSError:
                traced = b""
            for part in (f"{seed} {op.label} {code}\n{out}\n{err}\n".encode(), traced):
                sha.update(len(part).to_bytes(8, "little"))
                sha.update(part)
            calls += 1
            try:
                iters += json.loads(out)["ellipsoid_iters"]
            except (ValueError, KeyError, TypeError):
                pass
    return sha.hexdigest(), calls, iters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0],
                        help="presentation seeds (default 0)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the epicut package to run")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "benchmark")]
    import epicut.cli
    from workloads import WORKLOADS

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name in WORKLOAD_NAMES:
                sha, calls, iters = digest(WORKLOADS[name], args.seeds, epicut.cli.main)
                print(f"{name} seeds={','.join(map(str, args.seeds))} "
                      f"calls={calls} ellipsoid_iters={iters} sha256={sha}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
