"""Digest of every CLI output on the benchmark workloads.

    python3 tools/report_digest.py --seeds 0 1
    python3 tools/report_digest.py --seeds 0 1 --against ../parent/src
    python3 tools/report_digest.py --seeds 0 1 --against ../parent/src --parent HEAD

Runs each call of the lp-corpus, m-ladder and planted-minima workloads
(``benchmark/workloads.py``, read only) in-process through
``epicut.cli.main`` with ``--trace``, at every presentation seed given.
A fourth walk, families, runs ``decide`` and ``find-point`` on
``tests/test_lp.py``'s families_corpus(s, 20) at each seed s: its
equality pairs, thin slabs and homogeneous systems still reach
``decide``'s run and its certificate try, which no call of the three
workloads does.
Problem files and traces are written under a temporary working
directory and named relative to it, so the outputs do not depend on
where the tool runs.  For each workload it prints one sha256 over every
call's exit code, stdout, stderr and trace file, with the number of
calls and their total ellipsoid iterations and level queries (a change
in the metastep count shows there even when the iterations barely
move).  Two checkouts whose reports, exit codes and traces are
byte-identical print the same lines.
The package run is this checkout's, under ``src``.

``--against SRC`` also compares this checkout's package (the change)
with the one under SRC (the parent).  Both are imported, under distinct
names, into one process, and each call is run by both back to back, in
an order that alternates from call to call, ``PASSES`` times over the
workload.  After each workload's digest line it prints a second line:
whether every output of the two was byte-identical and the change's
share of the parent's time in ``cli.main``, summed over the calls.
When outputs differ, the line also names what differs and in how many
calls: the keys of the JSON report whose values differ, and
``exit_code``, ``stderr`` or ``trace_file`` (``stdout`` when a side
prints no JSON object), e.g. ``differs=certificate,d_star calls=8``.
Timing both sides in the same moment cancels the drift in speed between
separate processes.

With ``--against`` the tool is also a gate: it exits 1 when any
workload's outputs differ, unless ``tools/declared_change.json`` names
the parent commit (``--parent``, default ``HEAD~1``, resolved by git in
this checkout).  A change that means to alter outputs commits that file
with its parent's full hash and a reason; at the next commit the parent
is another one, so the declaration goes stale by itself.
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
import subprocess
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("lp-corpus", "m-ladder", "planted-minima", "families")
# Systems per family in the families walk.
FAMILY_COUNT = 20
# Passes over each workload with --against.
PASSES = 3
DECLARATION = os.path.join(ROOT, "tools", "declared_change.json")


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


def families(seed):
    """The families walk's calls at ``seed``: decide, then find-point,
    on each system of tests/test_lp.py's families_corpus(seed,
    FAMILY_COUNT).  The seed draws the corpus itself."""
    from test_lp import families_corpus
    from workloads import Op, Problem

    ops = []
    for k, (family, raw) in enumerate(families_corpus(seed, FAMILY_COUNT)):
        problem = Problem(f"{family}-{k:03d}", raw.rows, raw.offsets)
        ops += [Op(f"{command} {problem.name}", "families", command, problem)
                for command in ("decide", "find-point")]
    return types.SimpleNamespace(problems=[op.problem for op in ops[::2]], ops=ops)


def _write_problems(workload) -> None:
    for problem in workload.problems:
        with open(problem.name + ".json", "w", encoding="utf-8") as handle:
            json.dump({"name": problem.name, "A": problem.rows.tolist(),
                       "b": problem.offsets.tolist()}, handle)


def _traced_call(main, op):
    """(exit code, stdout, stderr, trace file bytes) of one call with
    ``--trace``."""
    trace = "trace.jsonl"
    argv = [op.command, op.problem.name + ".json"] + op.flags + ["--trace", trace]
    code, out, err, _ = _call(main, argv)
    try:
        with open(trace, "rb") as handle:
            traced = handle.read()
        os.remove(trace)
    except OSError:
        traced = b""
    return code, out, err, traced


def _differences(change, parent):
    """The names of the outputs that differ between two runs of one
    call, each a tuple (exit code, stdout, stderr[, trace file bytes]):
    ``exit_code``, ``stderr``, ``trace_file``, and for stdout the keys
    whose values differ when both are JSON objects, else ``stdout``."""
    names = set()
    for name, ours, theirs in zip(("exit_code", "stdout", "stderr", "trace_file"),
                                  change, parent):
        if ours == theirs:
            continue
        if name == "stdout":
            reports = [_report(out) for out in (ours, theirs)]
            if None not in reports:
                ours, theirs = reports
                # Values as JSON text, where -0.0 and 0.0 differ as on stdout.
                keys = {key for key in ours.keys() | theirs.keys()
                        if key not in ours.keys() & theirs.keys()
                        or json.dumps(ours[key]) != json.dumps(theirs[key])}
                if keys:
                    names |= keys
                    continue
        names.add(name)
    return names


def _report(out: str):
    """The JSON object ``out`` holds, or None."""
    try:
        report = json.loads(out)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def _report_counts(out: str):
    """(ellipsoid iterations, level queries) a report states; 0 for a
    count it does not state, and for any other output."""
    report = _report(out) or {}
    return report.get("ellipsoid_iters", 0), report.get("level_queries", 0)


def _hash(sha, parts) -> None:
    for part in parts:
        sha.update(len(part).to_bytes(8, "little"))
        sha.update(part)


def walk(workload_fn, seeds, change, parent=None):
    """(digest, differences, change/parent time) of passes over all
    seeds; runs in the current working directory.

    The digest is (sha256 hex, calls, total ellipsoid iterations, total
    level queries) over the change's calls with ``--trace``.
    differences maps each call whose outputs differ, by its place in a
    pass, to the names _differences gives over all passes; it is empty
    when every output is byte-identical.  Without ``parent`` that is the
    one pass, with no differences and the time None.  With it, ``PASSES`` passes run each
    call by both mains back to back, alternating which goes first.  Each
    pass times calls without ``--trace``, as the benchmark makes them,
    and compares their outputs; the first also compares the traced
    calls' outputs, trace files included."""
    mains = (change, parent)
    spent = [0.0, 0.0]
    differences = {}
    sha = hashlib.sha256()
    calls = iters = queries = 0
    passes = 1 if parent is None else PASSES
    for rep in range(passes):
        place = 0
        for seed in seeds:
            workload = workload_fn(seed)
            _write_problems(workload)
            for op in workload.ops:
                argv = [op.command, op.problem.name + ".json"] + op.flags
                outputs = [[], []]
                first = (calls + rep) % 2
                for side in (0,) if parent is None else (first, 1 - first):
                    if parent is not None:
                        code, out, err, seconds = _call(mains[side], argv)
                        spent[side] += seconds
                        outputs[side].append((code, out, err))
                    if rep == 0:
                        outputs[side].append(_traced_call(mains[side], op))
                if parent is not None:
                    for ours, theirs in zip(*outputs):
                        names = _differences(ours, theirs)
                        if names:
                            differences.setdefault(place, set()).update(names)
                if rep == 0:
                    code, out, err, traced = outputs[0][-1]
                    _hash(sha, (f"{seed} {op.label} {code}\n{out}\n{err}\n".encode(), traced))
                    call_iters, call_queries = _report_counts(out)
                    iters += call_iters
                    queries += call_queries
                calls += 1
                place += 1
    ratio = None if parent is None else spent[0] / spent[1]
    return (sha.hexdigest(), calls // passes, iters, queries), differences, ratio


def describe(differences) -> str:
    """The ``differs=... calls=...`` words for walk's differences."""
    names = sorted(set().union(*differences.values()))
    return f"differs={','.join(names)} calls={len(differences)}"


def gate(differing, declared, parent):
    """(exit code, verdict line) of the byte-identity gate.

    ``differing`` lists the workloads whose outputs differ from the
    parent's, ``declared`` is the parent commit the declaration names
    and ``parent`` the parent commit itself (either None when unknown).
    Differing outputs pass only when the two commits are the same."""
    if not differing:
        return 0, "gate: every output byte-identical to the parent's"
    names = ", ".join(differing)
    if declared is None:
        return 1, f"gate: FAIL: outputs differ on {names}, and no declaration is committed"
    if parent is None or declared != parent:
        return 1, (f"gate: FAIL: outputs differ on {names}; the declaration names "
                   f"{declared}, not the parent {parent}")
    return 0, f"gate: outputs differ on {names}, as declared for parent {parent}"


def _declared():
    """The parent commit tools/declared_change.json names, or None."""
    try:
        with open(DECLARATION, encoding="utf-8") as handle:
            return json.load(handle)["parent"]
    except OSError:
        return None


def _commit(rev):
    """The full hash of ``rev`` in this checkout, or None."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                             capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.strip()


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
    parser.add_argument("--parent", default="HEAD~1", metavar="REV",
                        help="the commit whose package --against names, matched "
                             "against the declaration (default HEAD~1)")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, name) for name in ("src", "benchmark", "tests")]
    import epicut.cli
    from workloads import WORKLOADS

    walks = {**WORKLOADS, "families": families}

    parent_cli = _load(args.against, "epicut_parent") if args.against else None
    seeds = ",".join(map(str, args.seeds))
    differing = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name in WORKLOAD_NAMES:
                (sha, calls, iters, queries), differences, ratio = walk(
                    walks[name], args.seeds, epicut.cli.main,
                    None if parent_cli is None else parent_cli.main)
                print(f"{name} seeds={seeds} calls={calls} ellipsoid_iters={iters} "
                      f"level_queries={queries} sha256={sha}", flush=True)
                if parent_cli is not None:
                    line = (f"{name} against parent: passes={PASSES} "
                            f"identical={'NO' if differences else 'yes'} "
                            f"change/parent={ratio:.3f}")
                    if differences:
                        line += " " + describe(differences)
                        differing.append(name)
                    print(line, flush=True)
        finally:
            os.chdir(home)
    if parent_cli is None:
        return 0
    code, line = gate(differing, _declared(), _commit(args.parent))
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
