"""Verdicts of decide and find-point on the sweep corpus, with an exact
check of every Feasible point.

    python3 tools/verdict_sweep.py --tol 1e-7
    python3 tools/verdict_sweep.py --tol 1e-7 --against ../parent/src

The sweep is criterion 07's 200 systems and ``tests/test_lp.py``'s
families_corpus(s, 200) at s = 101, 202 and 303: 5 600 systems.  Each
is normalized, then decided by ``decide_feasibility`` and searched by
``find_feasible_point`` at ``--tol``, in-process on this checkout's
package under ``src``.  The tool prints, per family, how many systems
get each verdict of either; the number of decisions that ran
``run_metasteps`` and their total ellipsoid iterations; and how many
Feasible points fail A x + b < 0 in exact ``fractions.Fraction``
arithmetic, on the normalized rows and on the rows as drawn, by the
path that gave the point: the pre-step's start, Gordan's point
(``_strict_point``) or the run.

``--against SRC`` also runs the package under SRC (the parent),
imported under a distinct name as ``tools/report_digest.py`` imports
it, prints the same lines for it, and lists every system whose
``decide`` or ``find-point`` verdict differs between the two, with the
change's path and exact check for a Feasible point.  A ``decide`` move
into InfeasibleNonStrict is checked too, by the brute-force oracle
``vertex_enumerate_feasible`` on the normalized rows at ``--tol``:
``oracle=infeasible``, ``oracle=feasible``, or ``oracle=too-large``
past its caps of 4 dimensions and 12 rows.  A system is named
by its corpus and its place there: ``families(101)#0045`` is
``list(families_corpus(101, 200))[45]``.  The tool reports; it exits 0
whatever it finds.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, name) for name in ("tools", "src", "tests")]

# Sets one BLAS thread before numpy loads, and imports a second package.
from report_digest import _load  # noqa: E402

SEEDS = (101, 202, 303)
PER_FAMILY = 200
PATHS = ("start", "strict", "run")


def sweep():
    """(name, family, raw rows, raw offsets) of each sweep system: the
    first PER_FAMILY of criterion 07's systems, then
    families_corpus(s, PER_FAMILY) for each s in SEEDS."""
    from test_lp import criterion_07_systems, families_corpus

    for k, (family, raw) in enumerate(islice(criterion_07_systems(), PER_FAMILY)):
        yield f"criterion-07#{k:04d}", family, raw.rows, raw.offsets
    for seed in SEEDS:
        for k, (family, raw) in enumerate(families_corpus(seed, PER_FAMILY)):
            yield f"families({seed})#{k:04d}", family, raw.rows, raw.offsets


def strictly_feasible(rows, offsets, point) -> bool:
    """rows . point + offsets < 0 on every row, in exact arithmetic on
    the floats as given."""
    x = [Fraction(v) for v in point.tolist()]
    return all(sum(Fraction(a) * v for a, v in zip(row, x)) + Fraction(b) < 0
               for row, b in zip(rows.tolist(), offsets.tolist()))


def outcome(lp, rows, offsets, tol):
    """One system's answers from the package whose lp module is ``lp``:
    a dict with the normalized system, the decide verdict, the find-point
    outcome, the decision's run (None without one) and, for Feasible,
    the path that gave its point and that point's exact check on the
    normalized and the raw rows."""
    sys_n = lp.normalize(lp.LinearSystem(rows, offsets))
    decision = lp.decide_feasibility(sys_n, tol)
    found = lp.find_feasible_point(sys_n, tol)
    result = {"system": sys_n, "decide": decision.verdict.value,
              "find-point": found.outcome.value, "report": decision.report, "path": None}
    if decision.verdict is lp.FeasibilityVerdict.FEASIBLE:
        point = decision.point
        if decision.report is not None:
            path = "run"
        else:
            start = lp._farkas_least_squares(sys_n, tol)[1]
            path = "start" if point.tobytes() == start.tobytes() else "strict"
        result.update(path=path,
                      normalized=strictly_feasible(sys_n.rows, sys_n.offsets, point),
                      raw=strictly_feasible(rows, offsets, point))
    return result


def summary(systems, results, tol):
    """The lines that state one package's verdicts on the sweep."""
    decide, find = {}, {}
    for (_, family, _, _), result in zip(systems, results):
        decide.setdefault(family, Counter())[result["decide"]] += 1
        find.setdefault(family, Counter())[result["find-point"]] += 1
    lines = [f"tol={tol:g} systems={len(results)}"]
    for family in decide:
        counts = " ".join(f"{k}={v}" for k, v in sorted(decide[family].items()))
        points = " ".join(f"{k}={v}" for k, v in sorted(find[family].items()))
        lines.append(f"  {family}: decide {counts}; find-point {points}")
    runs = [result["report"] for result in results if result["report"] is not None]
    lines.append(f"  decide runs={len(runs)} iterations={sum(r.iterations for r in runs)}")
    failures = Counter()
    for result in results:
        for rows in ("normalized", "raw"):
            if result["path"] is not None and not result[rows]:
                failures[result["path"], rows] += 1
    lines.append("  exact failures: " + "; ".join(
        f"{path} normalized={failures[path, 'normalized']} raw={failures[path, 'raw']}"
        for path in PATHS))
    return lines


def oracle(sys_n, tol) -> str:
    """vertex_enumerate_feasible's word on ``sys_n`` at ``tol``:
    infeasible, feasible, or too-large past its caps."""
    from epicut.bruteforce import vertex_enumerate_feasible
    from epicut.errors import SizeLimitExceeded

    try:
        feasible = vertex_enumerate_feasible(sys_n, tol).feasible
    except SizeLimitExceeded:
        return "too-large"
    return "feasible" if feasible else "infeasible"


def moves(systems, change, parent, tol):
    """One line per system and command whose verdict differs."""
    lines = []
    for (name, family, _, _), ours, theirs in zip(systems, change, parent):
        for command in ("decide", "find-point"):
            if ours[command] == theirs[command]:
                continue
            line = f"  {command} {name} {family}: {theirs[command]} -> {ours[command]}"
            if command == "decide" and ours["path"] is not None:
                line += (f" path={ours['path']} exact normalized={_yes(ours['normalized'])}"
                         f" raw={_yes(ours['raw'])}")
            if command == "decide" and ours[command] == "InfeasibleNonStrict":
                line += f" oracle={oracle(ours['system'], tol)}"
            lines.append(line)
    return lines


def _yes(flag: bool) -> str:
    return "yes" if flag else "NO"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tol", type=float, default=1e-7,
                        help="decide's and find-point's tolerance (default 1e-7)")
    parser.add_argument("--against", metavar="SRC",
                        help="directory holding the parent's epicut package: "
                             "run it too and list every verdict that moves")
    args = parser.parse_args(argv)
    import epicut.lp

    packages = {"change": epicut.lp}
    if args.against:
        _load(args.against, "epicut_parent")
        packages["parent"] = importlib.import_module("epicut_parent.lp")
    systems = list(sweep())
    results = {}
    for label, lp in packages.items():
        results[label] = [outcome(lp, rows, offsets, args.tol)
                          for _, _, rows, offsets in systems]
        print(label, *summary(systems, results[label], args.tol), sep="\n", flush=True)
    if args.against:
        moved = moves(systems, results["change"], results["parent"], args.tol)
        counts = Counter(line.split()[0] for line in moved)
        print(f"verdict moves: decide={counts['decide']} find-point={counts['find-point']}",
              *moved, sep="\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
