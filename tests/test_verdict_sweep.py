"""tools/verdict_sweep.py on a few systems per family: its exact check,
its summary and its account of verdict moves."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "verdict_sweep.py"


@pytest.fixture
def sweep(monkeypatch):
    # The tool and report_digest set these on import, and the tool puts
    # its directories first on sys.path; monkeypatch restores both.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("verdict_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [name for name in sys.modules if name.startswith("epicut_parent")]:
        del sys.modules[name]


def test_exact_check_is_not_fooled_by_rounding(sweep):
    # The float value of this row is -6.9e-18 at x, but its exact value
    # is above 0: x is not strictly feasible.
    rows, offsets = np.array([[-0.191, -0.603]]), np.array([-0.05915499999999999])
    point = np.array([-0.818, 0.161])
    assert -0.191 * -0.818 + -0.603 * 0.161 + -0.05915499999999999 < 0.0
    assert sweep.strictly_feasible(rows, offsets, point) is False
    assert sweep.strictly_feasible(rows, offsets - 1e-16, point) is True


def test_against_itself_nothing_moves(sweep, monkeypatch, capsys):
    monkeypatch.setattr(sweep, "PER_FAMILY", 2)
    assert sweep.main(["--against", str(ROOT / "src")]) == 0
    out = capsys.readouterr().out.splitlines()
    change, parent, moves = (out.index(line) for line in (
        "change", "parent", "verdict moves: decide=0 find-point=0"))
    assert moves == len(out) - 1
    # The same lines for both: 2 of criterion 07's systems and 2 rounds
    # of nine families at each of three seeds, one line per family, the
    # runs and the exact failures.
    assert out[change + 1:parent] == out[parent + 1:moves]
    block = out[change + 1:parent]
    assert block[0] == "tol=1e-07 systems=56"
    assert [line.split(":")[0] for line in block[1:11]] == [
        "  criterion-07", "  uniform", "  integer", "  homogeneous", "  planted",
        "  planted-infeasible", "  thin-planted", "  equality", "  thin-slab", "  flat"]
    assert block[11].startswith("  decide runs=")
    assert block[12].startswith("  exact failures: start normalized=")
    assert len(block) == 13


def test_moves_name_the_system_and_the_path(sweep):
    systems = [("families(101)#0007", "thin-slab", None, None)]
    ours = {"decide": "Feasible", "find-point": "FeasiblePointFound", "path": "strict",
            "normalized": True, "raw": False}
    theirs = {"decide": "InfeasibleStrictOnly", "find-point": "FeasiblePointFound",
              "path": None}
    assert sweep.moves(systems, [ours], [theirs]) == [
        "  decide families(101)#0007 thin-slab: InfeasibleStrictOnly -> Feasible "
        "path=strict exact normalized=yes raw=NO"]
