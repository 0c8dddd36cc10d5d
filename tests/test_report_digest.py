"""The byte-identity gate of tools/report_digest.py and its account of
what differs, decided without running the workloads."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"
PARENT = "6" * 40
OTHER = "0" * 40


@pytest.fixture
def digest(monkeypatch):
    # The tool sets these on import; monkeypatch restores them after.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    return module


class TestGate:
    def test_identical_outputs_pass_without_a_declaration(self, digest):
        for declared in (None, PARENT, OTHER):
            assert digest.gate([], declared, PARENT)[0] == 0

    def test_mismatch_fails_without_a_declaration(self, digest):
        code, line = digest.gate(["planted-minima"], None, PARENT)
        assert code == 1
        assert "FAIL" in line and "planted-minima" in line

    def test_declaration_for_the_parent_passes(self, digest):
        code, line = digest.gate(["lp-corpus", "m-ladder"], PARENT, PARENT)
        assert code == 0
        assert "lp-corpus, m-ladder" in line and PARENT in line

    def test_stale_declaration_fails(self, digest):
        # The declaration names the commit before, or git cannot say
        # which commit the parent is.
        for parent in (OTHER, None):
            code, line = digest.gate(["m-ladder"], PARENT, parent)
            assert code == 1
            assert "FAIL" in line and PARENT in line

    def test_declaration_file(self, digest, monkeypatch, tmp_path):
        path = tmp_path / "declared_change.json"
        monkeypatch.setattr(digest, "DECLARATION", str(path))
        assert digest._declared() is None
        path.write_text(json.dumps({"parent": PARENT, "why": "outputs change"}))
        assert digest._declared() == PARENT


class TestMain:
    @pytest.mark.parametrize("declared, code", [(None, 1), (PARENT, 0), (OTHER, 1)])
    def test_exit_status_follows_the_gate(self, digest, monkeypatch, tmp_path, capsys,
                                          declared, code):
        # Every workload differs from the parent in this stand-in walk.
        path = tmp_path / "declared_change.json"
        if declared is not None:
            path.write_text(json.dumps({"parent": declared, "why": "outputs change"}))
        monkeypatch.setattr(digest, "DECLARATION", str(path))
        monkeypatch.setattr(digest, "_load", lambda src, name: types.SimpleNamespace(main=None))
        monkeypatch.setattr(digest, "_commit", lambda rev: PARENT)
        monkeypatch.setattr(digest, "walk", lambda *args: (
            ("0" * 64, 1, 1, 1), {0: {"d_star", "certificate"}, 3: {"certificate"}}, 1.0))
        assert digest.main(["--against", str(tmp_path)]) == code
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.endswith("identical=NO change/parent=1.000 "
                                 "differs=certificate,d_star calls=2")
                   for line in lines) == 4
        assert lines[-1].startswith("gate: ")

    def test_without_a_parent_there_is_no_gate(self, digest, monkeypatch, capsys):
        monkeypatch.setattr(digest, "walk", lambda *args: (("0" * 64, 1, 1, 1), {}, None))
        assert digest.main([]) == 0
        assert "gate" not in capsys.readouterr().out

    def test_digest_line_states_iterations_and_queries(self, digest, monkeypatch, capsys):
        monkeypatch.setattr(digest, "walk", lambda *args: (("0" * 64, 3, 40, 7), {}, None))
        assert digest.main(["--seeds", "0", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{name} seeds=0,1 calls=3 ellipsoid_iters=40 level_queries=7 sha256={'0' * 64}"
            for name in ("lp-corpus", "m-ladder", "planted-minima", "families")]

    def test_families_walk_runs_decide_then_find_point(self, digest, monkeypatch):
        # Each system of the families corpus is one problem file with its
        # two calls; main puts tests/ on the path for the corpus.
        root = TOOL.parent.parent
        monkeypatch.syspath_prepend(str(root / "benchmark"))
        monkeypatch.syspath_prepend(str(root / "tests"))
        workload = digest.families(0)
        assert len(workload.problems) == 9 * digest.FAMILY_COUNT
        assert [op.command for op in workload.ops] == (
            ["decide", "find-point"] * len(workload.problems))
        assert all(op.problem is workload.problems[k // 2] for k, op in enumerate(workload.ops))
        assert len({problem.name for problem in workload.problems}) == len(workload.problems)


def fake_main(certificate, stderr=""):
    """A stand-in cli.main: a JSON report whose certificate is
    ``certificate(argv)``, and a trace file when asked for one."""
    def main(argv):
        report = {"verdict": "infeasible", "certificate": certificate(argv),
                  "ellipsoid_iters": 5, "level_queries": 2}
        print(json.dumps(report))
        sys.stderr.write(stderr)
        if "--trace" in argv:
            with open(argv[argv.index("--trace") + 1], "w") as handle:
                handle.write("{}\n")
        return 1
    return main


def fake_workload(seed):
    problem = types.SimpleNamespace(name=f"p{seed}", rows=np.eye(2), offsets=np.ones(2))
    return types.SimpleNamespace(problems=[problem], ops=[
        types.SimpleNamespace(command=command, problem=problem, flags=[], label=command)
        for command in ("decide", "find-point")])


class TestWalk:
    def test_names_the_report_keys_that_differ(self, digest, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        change = fake_main(lambda argv: [0.5, 0.5])
        parent = fake_main(lambda argv: [0.5, 0.5] if argv[0] == "decide" else [1.0, 0.0])
        (sha, calls, iters, queries), differences, ratio = digest.walk(
            fake_workload, [0, 1], change, parent)
        assert (calls, iters, queries) == (4, 20, 8)
        # find-point is the second call of each seed's pass.
        assert differences == {1: {"certificate"}, 3: {"certificate"}}
        assert digest.describe(differences) == "differs=certificate calls=2"
        assert ratio > 0.0
        same = digest.walk(fake_workload, [0, 1], change, change)
        assert same[0][0] == sha and same[1] == {}
        alone = digest.walk(fake_workload, [0, 1], change)
        assert alone[0][0] == sha and alone[1:] == ({}, None)

    def test_names_exit_code_stderr_and_trace_file(self, digest):
        report = json.dumps({"certificate": [1.0, -0.0]})
        assert digest._differences((1, report, "", b"{}"), (0, report, "oops", b"")) == {
            "exit_code", "stderr", "trace_file"}
        # -0.0 and 0.0 differ in the report's text, not as numbers.
        assert digest._differences(
            (1, report, ""), (1, json.dumps({"certificate": [1.0, 0.0]}), "")) == {"certificate"}
        # A report that gains a key, and a stdout that is no JSON object.
        assert digest._differences((1, "{}", ""), (1, report, "")) == {"certificate"}
        assert digest._differences((64, "", ""), (64, "usage", "")) == {"stdout"}
        # The same values in another text: stdout as a whole differs.
        assert digest._differences((1, report, ""), (1, report + "\n", "")) == {"stdout"}
