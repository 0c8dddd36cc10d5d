"""The byte-identity gate of tools/report_digest.py, decided without
running the workloads."""

import importlib.util
import json
import sys
import types
from pathlib import Path

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
        monkeypatch.setattr(digest, "walk",
                            lambda *args: (("0" * 64, 1, 1), False, 1.0))
        assert digest.main(["--against", str(tmp_path)]) == code
        lines = capsys.readouterr().out.splitlines()
        assert sum("identical=NO" in line for line in lines) == 3
        assert lines[-1].startswith("gate: ")

    def test_without_a_parent_there_is_no_gate(self, digest, monkeypatch, capsys):
        monkeypatch.setattr(digest, "walk", lambda *args: (("0" * 64, 1, 1), True, None))
        assert digest.main([]) == 0
        assert "gate" not in capsys.readouterr().out
