import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

RUN = [sys.executable, "-m", "epicut"]
REPORT_SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "run_report.schema.json"
README = Path(__file__).resolve().parent.parent / "README.md"


# x >= 1 and x <= 1 - 3e-8: infeasible by less than tol, so there is no
# certificate before the run, the least-squares pre-step's start is the
# origin (f = 0.71), and no point has f < 0: both decide and find-point
# run.
NUDGED_PAIR = {"A": [[-1], [1]], "b": [1, -0.99999997]}


def invoke(*argv, env=None):
    return subprocess.run(
        RUN + list(argv), capture_output=True, text=True, timeout=120, env=env
    )


def in_process(run, argv):
    """(exit code, stdout, stderr) of ``run(argv)`` in this process, each
    stream a new one for this call alone; a normal return is code None
    unless ``run`` returns one."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_problem(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(autouse=True)
def fresh_parser(monkeypatch):
    """Each test starts without main()'s cached parser and leaves none
    behind, so a parser built under a test's patches dies with it."""
    from epicut import cli

    monkeypatch.setattr(cli, "_PARSER", None)


@pytest.fixture
def unit_box(tmp_path):
    return write_problem(
        tmp_path / "box.json",
        {"name": "unit-box",
         "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
         "b": [-1, -1, -1, -1]},
    )


@pytest.fixture
def contradictory(tmp_path):
    return write_problem(
        tmp_path / "pair.json",
        {"name": "pair", "A": [[1], [-1]], "b": [1, 1]},
    )


class TestDecideCommand:
    def test_feasible_exit_zero(self, unit_box):
        proc = invoke("decide", unit_box)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "Feasible"
        assert report["certificate"] is None
        # Feasible rests on the point reported, where every row of the
        # box is below 0.
        assert max(abs(x) for x in report["point"]) < 1.0
        assert report["value"] is None

    @pytest.mark.parametrize("command", ["decide", "find-point"])
    def test_flat_rows_raise_no_runtime_warning(self, tmp_path, command):
        # Rows 1e-12 in scale, strictly feasible about 1e12 out.  Within
        # the default tol a certificate proves them infeasible; at
        # --tol 1e-13 none passes, so Gordan's point is computed, where
        # rounding leaves p_{n+1} >= 0: no point.  The run's first
        # metastep ends at a witness about 1e11 out, and the next ball,
        # centred there and holding the first incumbent, finds f < 0 (it
        # ended Undecided while a witness kept the radius, grown only
        # tenfold a metastep).  No step may overflow or divide by zero on
        # the way.
        rows, offsets = [[1e-12, -2e-12], [-3e-12, 1e-12]], [1, 1]
        path = write_problem(tmp_path / "flat.json", {"A": rows, "b": offsets})
        env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
        for flags, code in (((), 1), (("--tol", "1e-13"), 0)):
            proc = invoke(command, path, *flags, env=env)
            assert proc.stderr == ""
            assert proc.returncode == code
        # A x + b < 0 at the reported point, in exact arithmetic.
        point = [Fraction(x) for x in json.loads(proc.stdout)["point"]]
        assert max(sum(Fraction(a) * x for a, x in zip(row, point)) + b
                   for row, b in zip(rows, offsets)) < 0

    def test_infeasible_exit_one_with_certificate(self, contradictory):
        proc = invoke("decide", contradictory)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["verdict"] == "InfeasibleNonStrict"
        cert = report["certificate"]
        assert cert is not None
        assert cert[0] == pytest.approx(cert[1], abs=1e-6)
        assert report["d_star"] <= 1e-7
        assert report["point"] is None

    def test_strict_only_exit_two(self, tmp_path):
        path = write_problem(
            tmp_path / "weak.json", {"A": [[1], [-1]], "b": [0, 0]}
        )
        proc = invoke("decide", path)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["verdict"] == "InfeasibleStrictOnly"

    def test_malformed_json_exit_64(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"A": [[1,')
        proc = invoke("decide", str(bad))
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert "error" in proc.stderr

    def test_missing_file_exit_64(self):
        proc = invoke("decide", "/nonexistent/file.json")
        assert proc.returncode == 64

    def test_nan_rejected(self, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"A": [[NaN]], "b": [1]}')
        assert invoke("decide", str(bad)).returncode == 64

    def test_infinity_rejected(self, tmp_path):
        bad = tmp_path / "inf.json"
        bad.write_text('{"A": [[Infinity]], "b": [1]}')
        assert invoke("decide", str(bad)).returncode == 64

    def test_bool_rejected(self, tmp_path):
        bad = write_problem(tmp_path / "bool.json", {"A": [[True]], "b": [1]})
        assert invoke("decide", bad).returncode == 64

    def test_ragged_rejected(self, tmp_path):
        bad = write_problem(
            tmp_path / "ragged.json", {"A": [[1, 2], [3]], "b": [0, 0]}
        )
        assert invoke("decide", bad).returncode == 64

    def test_undecided_keeps_its_run(self, tmp_path, monkeypatch, capsys):
        from epicut import cli, lp

        # x <= 0 and x >= 0 never reach f < 0; without the certificate
        # try, the one metastep (which certifies min f = 0) ends Undecided.
        monkeypatch.setattr(lp, "_active_certificate", lambda *args: None)
        path = write_problem(tmp_path / "pair.json", {"A": [[1], [-1]], "b": [0, 0]})
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["decide", path, "--trace", str(trace)]) == cli.EXIT_UNDECIDED == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "Undecided"
        assert report["certificate"] is None
        assert report["level_queries"] == 1
        assert report["ellipsoid_iters"] > 0
        assert trace.read_text().strip()

    def test_byte_identical_reports(self, unit_box, contradictory):
        for path in (unit_box, contradictory):
            first = invoke("decide", path)
            second = invoke("decide", path)
            assert first.stdout == second.stdout
            assert first.returncode == second.returncode

    def test_timing_flag_fills_wall_ms(self, unit_box):
        report = json.loads(invoke("decide", unit_box).stdout)
        assert report["wall_ms"] is None
        timed = json.loads(invoke("decide", unit_box, "--timing").stdout)
        assert timed["wall_ms"] is not None and timed["wall_ms"] > 0.0


class TestFindPointCommand:
    def test_unit_box(self, unit_box):
        proc = invoke("find-point", unit_box)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "FeasiblePointFound"
        assert report["value"] <= 1e-7
        # The origin is feasible: found with no run, so no radius.
        assert report["radius"] is None

    def test_contradictory_proven(self, contradictory):
        # Proven before any run: no point, value or radius.
        proc = invoke("find-point", contradictory)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["verdict"] == "InfeasibleProven"
        assert report["point"] is None and report["value"] is None
        assert report["radius"] is None and report["ellipsoid_iters"] == 0

    def test_proven_report_carries_certificate(self, contradictory):
        report = json.loads(invoke("find-point", contradictory).stdout)
        cert = report["certificate"]
        assert cert is not None
        assert cert[0] == pytest.approx(cert[1], abs=1e-6)
        assert sum(cert) == pytest.approx(1.0)

    @pytest.mark.parametrize("command", ["decide", "find-point"])
    def test_flat_row_never_infeasible(self, tmp_path, command):
        # Feasible at x >= 3.3e6 only; the row varies by less than eps
        # across small balls.
        path = write_problem(tmp_path / "flat.json", {"A": [[-2.989e-07]], "b": [1]})
        proc = invoke(command, path)
        assert proc.returncode in (0, 3)
        assert json.loads(proc.stdout)["certificate"] is None

    def test_flat_row_point_without_stderr(self, tmp_path):
        path = write_problem(tmp_path / "flat.json", {"A": [[-2.989e-07]], "b": [1]})
        proc = invoke("find-point", path)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["verdict"] == "FeasiblePointFound"

    @pytest.mark.parametrize("command", ["decide", "find-point"])
    def test_badly_scaled_rows_without_stderr(self, tmp_path, command):
        # x <= -1 with tiny coefficients is feasible; x <= -1 and x >= 0
        # with huge ones is infeasible.
        tiny = write_problem(tmp_path / "tiny.json", {"A": [[1e-160]], "b": [1e-160]})
        huge = write_problem(tmp_path / "huge.json", {"A": [[1e200], [-1]], "b": [1e200, 0]})
        for path, code in ((tiny, 0), (huge, 1)):
            proc = invoke(command, path)
            assert proc.returncode == code
            assert proc.stderr == ""

    def test_nonpositive_half_line_returns_origin(self, tmp_path):
        path = write_problem(tmp_path / "half.json", {"A": [[1]], "b": [0]})
        proc = invoke("find-point", path)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["point"] == [0.0]
        assert report["ellipsoid_iters"] == 0
        assert report["radius"] is None
        assert report["bracket"] is None and report["depth"] is None

    @pytest.mark.parametrize("command", ["decide", "find-point"])
    @pytest.mark.parametrize("doc, certified", [
        # Both commands run on the nudged pair, and end within tol of
        # feasible.
        (NUDGED_PAIR, False),
        ({"A": [[1], [-1]], "b": [1, 1]}, True),
    ])
    def test_report_carries_the_run_bracket(self, tmp_path, command, doc, certified):
        path = write_problem(tmp_path / "p.json", doc)
        report = json.loads(invoke(command, path).stdout)
        assert report["depth"] is None
        if certified:
            # The pre-step's certificate proves it before any run.
            assert report["certificate"] is not None
            assert report["bracket"] is None
            assert report["level_queries"] == report["ellipsoid_iters"] == 0
            return
        lower, upper = report["bracket"]
        assert lower is not None and lower <= upper <= 1e-7
        if command == "find-point":
            assert upper == report["value"]

    def test_pre_step_point_has_no_run(self, tmp_path):
        # 1 <= x <= 3: the least-squares pre-step's start is x = 1, the
        # nearest feasible point, so find-point reports it without a run.
        path = write_problem(tmp_path / "p.json", {"A": [[-1], [1]], "b": [1, -3]})
        trace = tmp_path / "trace.jsonl"
        proc = invoke("find-point", path, "--trace", str(trace))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "FeasiblePointFound"
        assert report["point"][0] == pytest.approx(1.0, abs=1e-12)
        assert report["value"] <= 1e-7
        assert report["radius"] is None and report["bracket"] is None
        assert report["level_queries"] == report["ellipsoid_iters"] == 0
        assert trace.read_text() == ""

    @pytest.mark.parametrize("doc", [
        {"A": [[0, 0]], "b": [-1]},  # every row vacuous
        {"A": [[1], [-1]], "b": [1, 1]},  # the pre-step's certificate
        {"A": [[1]], "b": [0]},  # a feasible origin
        {"A": [[-1], [1]], "b": [1, -3]},  # the pre-step's start, x = 1
        # The flat quad of test_lp.py: its start has f = 0.11, and
        # Gordan's point f < 0.
        {"A": [[-3.33e-4, -1.12e-4, -2.95e-4, 1.17e-4],
               [1.44e-7, -3.16e-7, -2.49e-7, 2.37e-7],
               [9.63e-8, -1.35e-7, -8.68e-8, -1.58e-7],
               [-3.65e-5, 5.25e-6, -1.80e-5, 1.30e-5]],
         "b": [1, 1, 1, 1]},
        NUDGED_PAIR,  # the run
    ], ids=["vacuous", "certificate", "origin", "start", "gordan", "run"])
    def test_radius_is_the_runs(self, tmp_path, capsys, doc):
        # find-point's radius is the last metastep's with a run, and null
        # for every answer without one.
        import numpy as np

        from epicut import LinearSystem, cli, find_feasible_point, normalize

        path = write_problem(tmp_path / "p.json", doc)
        assert cli.main(["find-point", path]) in (cli.EXIT_OK, cli.EXIT_INFEASIBLE)
        report = json.loads(capsys.readouterr().out)
        if doc is not NUDGED_PAIR:
            assert report["radius"] is None and report["ellipsoid_iters"] == 0
            return
        raw = LinearSystem(np.array(doc["A"], float), np.array(doc["b"], float))
        run = find_feasible_point(normalize(raw)).metastep_report
        assert run.level_queries == report["level_queries"] == 2
        assert report["radius"] == run.config.radius == 1000.0

    @pytest.mark.parametrize("command", ["decide", "find-point"])
    def test_proven_before_any_run(self, tmp_path, command):
        # A planted infeasible system (m = 16, n = 4): the least-squares
        # pre-step proves it, so the report carries no run.
        import numpy as np
        from epicut.lp import LinearSystem, normalize, validate_certificate

        rng = np.random.default_rng(16)
        rows = rng.uniform(-1, 1, (16, 4))
        q = rng.uniform(0.1, 1.0, 16)
        rows -= np.outer(q, q @ rows) / (q @ q)
        offsets = rng.uniform(-1, 1, 16)
        offsets += q * (0.5 - offsets @ q) / (q @ q)
        path = write_problem(tmp_path / "planted.json",
                             {"A": rows.tolist(), "b": offsets.tolist()})
        trace = tmp_path / "trace.jsonl"
        proc = invoke(command, path, "--trace", str(trace))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        norm = normalize(LinearSystem(rows, offsets))
        assert validate_certificate(norm, np.array(report["certificate"]))
        assert report["level_queries"] == report["ellipsoid_iters"] == 0
        for key in ("bracket", "point", "value", "radius", "depth"):
            assert report[key] is None
        assert trace.read_text() == ""

    def test_all_vacuous_decide_has_no_bracket(self, tmp_path):
        path = write_problem(tmp_path / "vacuous.json", {"A": [[0, 0]], "b": [-1]})
        report = json.loads(invoke("decide", path).stdout)
        assert report["verdict"] == "Feasible"
        assert report["bracket"] is None and report["depth"] is None
        assert report["point"] == [0.0, 0.0]

    @pytest.mark.parametrize("command", ["decide", "find-point"])
    def test_all_vacuous_trace_file_is_empty(self, tmp_path, command):
        path = write_problem(tmp_path / "vacuous.json", {"A": [[0, 0]], "b": [-1]})
        trace = tmp_path / "trace.jsonl"
        assert invoke(command, path, "--trace", str(trace)).returncode == 0
        assert trace.read_text() == ""

    def test_all_vacuous_find_point_reports_f_at_the_origin(self, tmp_path):
        # The normalized row (0, -1) has f = -1 at the origin.
        path = write_problem(tmp_path / "vacuous.json", {"A": [[0, 0]], "b": [-1]})
        proc = invoke("find-point", path)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "FeasiblePointFound"
        assert report["point"] == [0.0, 0.0] and report["value"] == -1.0

    @pytest.mark.parametrize("command", ["decide", "find-point"])
    def test_certificate_has_one_entry_per_file_row(self, tmp_path, command):
        # x <= -1 and x >= 1 behind a vacuous row 0 x - 1 <= 0: the
        # certificate's entries line up with the file's three rows.
        import numpy as np
        from epicut.lp import LinearSystem, normalize, validate_certificate

        doc = {"A": [[0], [1], [-1]], "b": [-1, 1, 1]}
        proc = invoke(command, write_problem(tmp_path / "p.json", doc))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        q = report["certificate"]
        assert len(q) == report["m"] == 3 and q[0] == 0.0
        raw = LinearSystem(np.array(doc["A"], float), np.array(doc["b"], float))
        assert validate_certificate(normalize(raw), np.array(q))

    @pytest.mark.parametrize("doc", [{"A": [[1.0], [0.0]], "b": [0.0, 0.0]},
                                     {"A": [[0.0]], "b": [0.0]}], ids=["with-x", "alone"])
    def test_zero_row_has_no_strict_point(self, tmp_path, doc):
        # 0 x + 0 <= 0 holds everywhere but never strictly: decide finds
        # its Gordan vector (A^T q = 0, b.q = 0), and find-point a point.
        import numpy as np

        path = write_problem(tmp_path / "zero.json", doc)
        proc = invoke("decide", path)
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["verdict"] == "InfeasibleStrictOnly"
        q = np.array(report["certificate"])
        assert q.shape == (len(doc["b"]),) and q.min() >= 0.0 and q.sum() > 0.0
        assert np.all(np.array(doc["A"]).T @ q == 0.0) and np.array(doc["b"]) @ q == 0.0
        proc = invoke("find-point", path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "FeasiblePointFound"

    def test_no_radius_program(self, unit_box, contradictory, monkeypatch, capsys):
        from epicut import cli, lp

        def boom(*args, **kwargs):
            raise AssertionError("find-point must not derive a radius")

        monkeypatch.setattr(cli, "global_radius", boom)
        monkeypatch.setattr(lp, "global_radius", boom)
        assert cli.main(["find-point", unit_box]) == 0
        assert cli.main(["find-point", contradictory]) == 1
        assert capsys.readouterr().err == ""

    def test_criterion_07_corpus_matches_decide(self, tmp_path, capsys):
        import numpy as np

        from epicut import LinearSystem, cli, normalize, validate_certificate

        rng = np.random.default_rng(20240816)  # drawn as criterion 07 draws them
        path = tmp_path / "system.json"
        verdicts = {}
        for _ in range(200):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            rows, offsets = rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m)
            write_problem(path, {"A": rows.tolist(), "b": offsets.tolist()})
            decided = cli.main(["decide", str(path)])
            capsys.readouterr()
            code = cli.main(["find-point", str(path)])
            out = capsys.readouterr()
            assert out.err == ""
            report = json.loads(out.out)
            sys_n = normalize(LinearSystem(rows, offsets))
            if decided == cli.EXIT_OK:
                assert (code, report["verdict"]) == (0, "FeasiblePointFound")
                assert sys_n.violation(np.asarray(report["point"])) <= 1e-7
            else:
                assert (code, report["verdict"]) == (1, "InfeasibleProven")
                assert validate_certificate(sys_n, report["certificate"], tol=1e-7)
            verdicts[report["verdict"]] = verdicts.get(report["verdict"], 0) + 1
        assert verdicts == {"FeasiblePointFound": 120, "InfeasibleProven": 80}


class TestConfigEcho:
    @pytest.mark.parametrize("command", ["decide", "find-point"])
    @pytest.mark.parametrize("flag", ["--eps", "--radius", "--metasteps",
                                      "--radius-growth", "--x0"])
    def test_solver_flag_rejected(self, unit_box, capsys, command, flag):
        from epicut import cli

        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, unit_box, flag, "0"])
        assert exit_info.value.code == cli.EXIT_USAGE == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"epicut: error: unrecognized arguments: {flag} 0\n"

    def test_echo_lists_only_the_flags_read(self, tmp_path, unit_box):
        abs_path = write_problem(tmp_path / "abs.json", {"A": [[1], [-1]], "b": [-1, -1]})
        cases = [
            (["decide", unit_box, "--tol", "1e-6"], {"tol"}),
            (["find-point", unit_box, "--tol", "1e-6"], {"tol"}),
            (["minimize", abs_path, "--eps", "1e-5", "--radius", "3", "--metasteps", "4",
              "--radius-growth", "2", "--x0=0.5"],
             {"eps", "radius", "metasteps", "radius_growth", "x0"}),
        ]
        for argv, read in cases:
            config = json.loads(invoke(*argv).stdout)["config"]
            assert {key for key, value in config.items() if value is not None} == read


class TestMinimizeCommand:
    def test_abs_minus_one(self, tmp_path):
        path = write_problem(
            tmp_path / "abs.json",
            {"name": "abs-minus-one", "A": [[1], [-1]], "b": [-1, -1]},
        )
        proc = invoke("minimize", path, "--radius", "2", "--x0", "0.6")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "GlobalOptimumCertified"
        assert report["value"] == pytest.approx(-1.0, abs=1e-4)
        lower, upper = report["bracket"]
        assert lower <= -1.0 <= upper == report["value"] <= lower + 1e-6
        (x,) = report["point"]
        assert report["depth"] == pytest.approx(2.0 - abs(x - 0.6))
        assert report["depth"] > 10e-6

    def test_huge_radius_with_finite_square_runs(self, tmp_path):
        # |x - 5| - 1: the cut bound loses the minimizer to cancellation at
        # these radii; the bracket must still hold the minimum -1.
        path = write_problem(tmp_path / "f.json", {"A": [[1], [-1]], "b": [-6, 4]})
        for radius in ("1e20", "1e150"):
            proc = invoke("minimize", path, "--radius", radius)
            assert proc.returncode == 0
            report = json.loads(proc.stdout)
            assert report["value"] >= -1.0
            lower, upper = report["bracket"]
            assert lower <= -1.0 <= upper == report["value"]

    def test_empty_objective_cut_is_followed_by_a_central_cut(self, tmp_path):
        # |x - 1e15| from its minimizer: f(c) - U rounds to at least the
        # width, so the deep objective cut finds the ellipsoid empty.  The
        # same cut came back at the same center until the budget ran out
        # (586 iterations, BudgetExhausted with bracket [-0.666, 0]); the
        # central cut there shrinks the ellipsoid instead.
        path = write_problem(tmp_path / "f.json", {"A": [[1.0], [-1.0]], "b": [-1e15, 1e15]})
        proc = invoke("minimize", path, "--x0=1e15", "--radius", "1.5e15", "--eps", "1e-6",
                      "--metasteps", "1")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "GlobalOptimumCertified"
        assert report["bracket"] == [0.0, 0.0] and report["ellipsoid_iters"] == 19

    @pytest.mark.parametrize("doc, flags", [
        # f(0.9999) is about -0.9999; an overflowing f(c) read as a cut
        # with infinite slack closed the bracket at f(0) = 0 (exit 0).
        ({"A": [[1e307], [-1]], "b": [-1e307, 0]}, ["--radius", "1000"]),
        # f(x0) overflows: no incumbent at all (LevelSetEmpty, exit 3).
        ({"A": [[1e300]], "b": [0]}, ["--x0", "1e10", "--radius", "1"]),
    ])
    def test_non_finite_value_is_an_internal_error(self, tmp_path, doc, flags):
        proc = invoke("minimize", write_problem(tmp_path / "f.json", doc), *flags)
        assert proc.returncode == 70
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith(
            "epicut: internal error: NonFiniteValue: ")

    def test_normal_in_the_top_binade_runs(self, tmp_path):
        # ||g||^2 overflows and g's entry is above 2^1023: the cut kernel
        # rescaled by 2^1024 and exited 1 with a traceback.
        path = write_problem(tmp_path / "f.json", {"A": [[9e307]], "b": [0]})
        proc = invoke("minimize", path, "--radius", "1", "--metasteps", "1")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "BoundaryReached"
        assert report["point"] == [-1.0] and report["value"] == -9e307

    def test_later_metastep_error_keeps_the_proven_metasteps(self, tmp_path):
        # The first metastep proves BoundaryReached by a witness just past
        # -1, below its lb, after 2 iterations at -0.5; the second one's
        # ball around the witness holds values below -1.8e308 and raises.
        # The report is the first one's, not an internal error.
        path = write_problem(tmp_path / "f.json", {"A": [[9e307]], "b": [0]})
        proc = invoke("minimize", path, "--radius", "1")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "BoundaryReached"
        assert report["point"] == [-0.5] and report["value"] == -0.5 * 9e307
        assert (report["level_queries"], report["ellipsoid_iters"]) == (1, 2)
        assert report["bracket"] == [-9e307, report["value"]]

    def test_radius_required(self, tmp_path):
        path = write_problem(tmp_path / "abs.json", {"A": [[1], [-1]], "b": [0, 0]})
        assert invoke("minimize", path).returncode == 64

    def test_zero_radius_rejected(self, tmp_path):
        path = write_problem(tmp_path / "abs.json", {"A": [[1], [-1]], "b": [0, 0]})
        assert invoke("minimize", path, "--radius", "0").returncode == 64

    def test_tol_rejected(self, tmp_path):
        path = write_problem(tmp_path / "abs.json", {"A": [[1], [-1]], "b": [0, 0]})
        proc = invoke("minimize", path, "--radius", "2", "--tol", "1e-6")
        assert proc.returncode == 64
        assert "unrecognized arguments: --tol" in proc.stderr

    def test_boundary_status_with_single_metastep(self, tmp_path):
        path = write_problem(tmp_path / "far.json", {"A": [[1], [-1]], "b": [-1, -1]})
        proc = invoke(
            "minimize", path, "--radius", "2", "--x0", "10", "--metasteps", "1"
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "BoundaryReached"
        lower, upper = report["bracket"]
        assert lower <= 7.0 <= upper <= lower + 1e-6
        assert abs(report["depth"]) <= 1e-5

    def test_last_metastep_closes_its_bracket(self, tmp_path):
        # Tangents of x^2 at 0, 1, ..., 20, from 20 with R = 1: the first
        # metastep ends at a model vertex outside its ball, the second and
        # last one closes its bracket on its sphere.
        t = list(range(21))
        path = write_problem(tmp_path / "tangents.json",
                             {"A": [[2 * k] for k in t], "b": [-k * k for k in t]})
        proc = invoke("minimize", path, "--radius", "1", "--x0", "20", "--metasteps", "2")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "BoundaryReached"
        assert report["level_queries"] == 2
        lower, upper = report["bracket"]
        assert lower <= upper == report["value"] <= lower + 1e-6
        assert abs(report["depth"]) <= 1e-5
        # The second ball is centred past the first one's reach, 19.
        assert report["point"][0] < 18.0
        proc = invoke("minimize", path, "--radius", "1", "--x0", "20")
        report = json.loads(proc.stdout)
        assert report["verdict"] == "GlobalOptimumCertified"
        assert report["value"] == 0.0

    def test_subgradient_from_a_row_that_attains_the_max(self, tmp_path):
        # max(0, x + 5e-13): at x = 0 the second row attains the max and
        # the first lies 5e-13 below it.  A subgradient read from the
        # first row, 0, made the cut bound f(c) - ||J^T g|| = 5e-13, and
        # the run certified 5e-13 with bracket [5e-13, 5e-13], though the
        # minimum is 0.
        path = write_problem(tmp_path / "near.json", {"A": [[0.0], [1.0]], "b": [0.0, 5e-13]})
        proc = invoke("minimize", path, "--radius", "1", "--eps", "1e-14")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "GlobalOptimumCertified"
        assert report["value"] == 0.0
        assert report["bracket"][0] <= 0.0

    @pytest.mark.parametrize("radius", ["1e140", "1e150", "1e153"])
    def test_no_certificate_within_the_rounding_of_the_radius(self, tmp_path, radius):
        # f(x) = x has no minimum.  The incumbent lies about 2 ulps of R
        # inside the sphere, which passed the 10 eps interior test.  Its
        # value is known only to the rounding of R, far above eps, so the
        # bracket stays open and holds the ball's minimum -R.
        path = write_problem(tmp_path / "line.json", {"A": [[1]], "b": [0]})
        proc = invoke("minimize", path, "--radius", radius, "--metasteps", "1")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "BudgetExhausted"
        assert report["bracket"][0] <= -float(radius) < report["bracket"][1]

    def test_grown_radius_with_finite_square_runs(self, tmp_path):
        # f(x) = x has no minimum.  The second ball's radius 1e154 has a
        # finite square, so the run goes on to the sphere.  From R = 1e153
        # it would not, and that run is refused (TestFlagValues).
        path = write_problem(tmp_path / "line.json", {"A": [[1]], "b": [0]})
        proc = invoke("minimize", path, "--radius", "1e152", "--radius-growth", "1e2",
                      "--metasteps", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "BoundaryReached"

    def test_handled_overflow_prints_nothing(self, tmp_path):
        # ||J^T g||^2 overflows in the cut kernel, which rescales it.
        path = write_problem(tmp_path / "f.json", {"A": [[1, 0.5], [0.3, 1]], "b": [0, 0]})
        proc = invoke("minimize", path, "--radius", "1e100")
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_bad_x0_rejected(self, tmp_path):
        path = write_problem(tmp_path / "abs.json", {"A": [[1], [-1]], "b": [0, 0]})
        assert invoke("minimize", path, "--radius", "2", "--x0", "1,2").returncode == 64
        assert invoke("minimize", path, "--radius", "2", "--x0", "zzz").returncode == 64

    def test_negative_first_coordinate_needs_the_equals_form(self, unit_box):
        # argparse reads a separate value that starts with '-' and is not
        # one plain negative number as a flag, so a start whose first
        # coordinate is negative is written --x0=-0.5,0.5 (README, CLI).
        proc = invoke("minimize", unit_box, "--radius", "2", "--x0=-0.5,0.5")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["config"]["x0"] == "-0.5,0.5"
        proc = invoke("minimize", unit_box, "--radius", "2", "--x0", "-0.5,0.5")
        assert proc.returncode == 64 and proc.stdout == ""
        assert proc.stderr == "epicut minimize: error: argument --x0: expected one argument\n"
        assert "`--x0=-0.5,0.5`" in README.read_text()

    def test_trace_file_written(self, tmp_path):
        path = write_problem(tmp_path / "abs.json", {"A": [[1], [-1]], "b": [-1, -1]})
        trace = tmp_path / "trace.jsonl"
        proc = invoke(
            "minimize", path, "--radius", "2", "--x0", "0.6", "--trace", str(trace)
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["trace_file"] == str(trace)
        lines = trace.read_text().strip().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert set(record) == {
            "query", "iteration", "center", "value", "cut", "depth", "log_volume"
        }


class TestTraceFlag:
    @pytest.mark.parametrize("command,doc,flags", [
        ("decide", {"A": [[1], [-1]], "b": [1, 1]}, []),
        # 1 <= x <= 1: not strictly feasible, so decide runs.
        ("decide", {"A": [[-1], [1]], "b": [1, -1]}, []),
        ("find-point", NUDGED_PAIR, []),
        ("minimize", {"A": [[1], [-1]], "b": [-1, -1]}, ["--radius", "2", "--x0", "5"]),
    ])
    def test_trace_changes_only_the_echo(self, tmp_path, command, doc, flags):
        path = write_problem(tmp_path / "problem.json", doc)
        trace = tmp_path / "trace.jsonl"
        plain = invoke(command, path, *flags)
        traced = invoke(command, path, *flags, "--trace", str(trace))
        assert traced.returncode == plain.returncode
        expected = json.loads(plain.stdout)
        expected["trace_file"] = str(trace)
        expected["config"]["trace"] = str(trace)
        assert json.loads(traced.stdout) == expected
        # The contradictory pair is proven before any run: an empty trace.
        runs = doc != {"A": [[1], [-1]], "b": [1, 1]}
        assert (trace.read_text().count("\n") > 0) == runs
        assert (expected["ellipsoid_iters"] > 0) == runs
        assert (expected["bracket"] is not None) == runs


# Files the JSON loader itself fails on, each a malformed problem.
MALFORMED = {
    "int-beyond-float": b'{"A": [[1' + b"0" * 400 + b']], "b": [1]}',
    "non-utf8-byte": b'{"A": [[1]], "b": [1], "name": "\xff"}',
    "deep-nesting": b'{"A": ' + b"[" * 5000 + b"]" * 5000 + b', "b": [1]}',
    "int-past-digit-limit": b'{"A": [[1' + b"0" * 5000 + b']], "b": [1]}',
}

# A bad entry of A or b, each in a file of two rows, and the UsageError
# load_problem raises for it ({path} stands for the file's path).
BAD_ENTRIES = {
    "bool-in-A": ('{"A": [[1, 2], [3, true]], "b": [1, 2]}',
                  "A[1][1] must be a number, got True"),
    "bool-in-b": ('{"A": [[1, 2], [3, 4]], "b": [false, 2]}',
                  "b[0] must be a number, got False"),
    "string-in-A": ('{"A": [[1, "2"], [3, 4]], "b": [1, 2]}',
                    "A[0][1] must be a number, got '2'"),
    "string-in-b": ('{"A": [[1, 2], [3, 4]], "b": [1, "x"]}',
                    "b[1] must be a number, got 'x'"),
    "int-beyond-float-in-A": ('{"A": [[1, 2], [1' + "0" * 400 + ', 4]], "b": [1, 2]}',
                              "A[1][0] must be finite, got an integer beyond the float range"),
    "int-beyond-float-in-b": ('{"A": [[1, 2], [3, 4]], "b": [1, -1' + "0" * 400 + ']}',
                              "b[1] must be finite, got an integer beyond the float range"),
    "overflowing-float-in-A": ('{"A": [[1, 2], [3, 1e999]], "b": [1, 2]}',
                               "A[1][1] must be finite, got inf"),
    "overflowing-float-in-b": ('{"A": [[1, 2], [3, 4]], "b": [-1e999, 2]}',
                               "b[0] must be finite, got -inf"),
    "nan-constant-in-A": ('{"A": [[1, NaN], [3, 4]], "b": [1, 2]}',
                          "non-finite number 'NaN' in problem file"),
    "infinity-constant-in-b": ('{"A": [[1, 2], [3, 4]], "b": [1, -Infinity]}',
                               "non-finite number '-Infinity' in problem file"),
    "ragged-row-in-A": ('{"A": [[1, 2], [3]], "b": [1, 2]}',
                        "{path}: 'A' is not rectangular at row 1"),
    "ragged-b": ('{"A": [[1, 2], [3, 4]], "b": [1]}',
                 "{path}: 'b' must list one number per row of 'A'"),
    "row-in-b": ('{"A": [[1, 2], [3, 4]], "b": [1, [2]]}',
                 "b[1] must be a number, got [2]"),
    "null-in-A": ('{"A": [[null, 2], [3, 4]], "b": [1, 2]}',
                  "A[0][0] must be a number, got None"),
    "object-in-A": ('{"A": [[1, {"x": 1}], [3, 4]], "b": [1, 2]}',
                    "A[0][1] must be a number, got {{'x': 1}}"),
    "number-as-row": ('{"A": [[1, 2], 3], "b": [1, 2]}',
                      "{path}: row 1 of 'A' must be a non-empty array"),
    "string-as-row": ('{"A": [[1, 2], "ab"], "b": [1, 2]}',
                      "{path}: row 1 of 'A' must be a non-empty array"),
    "empty-row": ('{"A": [[1, 2], []], "b": [1, 2]}',
                  "{path}: row 1 of 'A' must be a non-empty array"),
    "every-row-empty": ('{"A": [[], []], "b": [1, 2]}',
                        "{path}: row 0 of 'A' must be a non-empty array"),
}

# Files with two faults: the UsageError names the first in file order,
# the rows of A (each row's shape, then its entries) before b.
TWO_FAULTS = {
    "bool-in-row-0-then-ragged-row-2": ('{"A": [[1, true], [3, 4], [5]], "b": [1, 2, 3]}',
                                        "A[0][1] must be a number, got True"),
    "bad-b-then-ragged-row": ('{"A": [[1, 2], [3]], "b": ["x", 2]}',
                              "{path}: 'A' is not rectangular at row 1"),
    "string-in-row-0-then-inf-in-row-1": ('{"A": [[1, "s"], [1e999, 4]], "b": [1, 2]}',
                                          "A[0][1] must be a number, got 's'"),
    "bool-in-row-1-then-big-int-in-row-2": (
        '{"A": [[1, 2], [false, 4], [5, 1' + "0" * 400 + ']], "b": [1, 2, 3]}',
        "A[1][0] must be a number, got False"),
    "inf-in-b-then-bool-in-A": ('{"A": [[1, 2], [3, true]], "b": [1e999, 2]}',
                                "A[1][1] must be a number, got True"),
    "ragged-row-1-then-empty-row-2": ('{"A": [[1, 2], [3], []], "b": [1, 2, 3]}',
                                      "{path}: 'A' is not rectangular at row 1"),
    "big-int-then-string-in-b": ('{"A": [[1, 2], [3, 4]], "b": [-1' + "0" * 400 + ', "x"]}',
                                 "b[0] must be finite, got an integer beyond the float range"),
}

# The last entry of a 48 x 4 file, each a fault: (JSON text, message).
LAST_ENTRY_FAULTS = {
    "bool": ("true", "must be a number, got True"),
    "string": ('"7"', "must be a number, got '7'"),
    "null": ("null", "must be a number, got None"),
    "int-beyond-float": ("1" + "0" * 400, "must be finite, got an integer beyond the float range"),
    "overflowing-float": ("1e999", "must be finite, got inf"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    @pytest.mark.parametrize("command", [["decide"], ["find-point"], ["minimize", "--radius", "1"]],
                             ids=["decide", "find-point", "minimize"])
    def test_usage_error_without_traceback(self, tmp_path, name, command):
        bad = tmp_path / f"{name}.json"
        bad.write_bytes(MALFORMED[name])
        proc = invoke(command[0], str(bad), *command[1:])
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert proc.stderr.startswith("epicut: error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name", sorted(BAD_ENTRIES))
    def test_bad_entry_message(self, tmp_path, name):
        from epicut import cli

        text, message = BAD_ENTRIES[name]
        bad = tmp_path / f"{name}.json"
        bad.write_text(text)
        with pytest.raises(cli.UsageError) as error:
            cli.load_problem(str(bad))
        assert str(error.value) == message.format(path=bad)

    @pytest.mark.parametrize("name", sorted(TWO_FAULTS))
    def test_first_of_two_faults_is_named(self, tmp_path, name):
        from epicut import cli

        text, message = TWO_FAULTS[name]
        bad = tmp_path / f"{name}.json"
        bad.write_text(text)
        with pytest.raises(cli.UsageError) as error:
            cli.load_problem(str(bad))
        assert str(error.value) == message.format(path=bad)

    @pytest.mark.parametrize("field", ["A", "b"])
    @pytest.mark.parametrize("fault", sorted(LAST_ENTRY_FAULTS))
    def test_fault_in_the_last_entry_is_named(self, tmp_path, field, fault):
        from epicut import cli

        entry, message = LAST_ENTRY_FAULTS[fault]
        rows = [[str(4 * i + j + 1) for j in range(4)] for i in range(48)]
        offsets = [str(-k - 1) for k in range(48)]
        if field == "A":
            rows[47][3], where = entry, "A[47][3]"
        else:
            offsets[47], where = entry, "b[47]"
        bad = tmp_path / "ladder.json"
        bad.write_text('{"A": [%s], "b": [%s]}' % (
            ", ".join("[" + ", ".join(row) + "]" for row in rows), ", ".join(offsets)))
        with pytest.raises(cli.UsageError) as error:
            cli.load_problem(str(bad))
        assert str(error.value) == f"{where} {message}"

    def test_entries_read_as_float_does(self, tmp_path):
        # Ints past 2**53, 2**63 and 2**64 round as float() rounds them,
        # the largest that rounds below 2**1024 included; -0.0 and the
        # smallest subnormal keep their bits.
        from epicut import cli

        entries = [2**53 + 1, 2**63 + 1, 2**64 + 3, -(2**64) - 1,
                   2**1024 - 2**970 - 1, -0.0, 5e-324, -1.7976931348623157e308]
        rows = [entries[:4], entries[4:]]
        path = write_problem(tmp_path / "edges.json", {"A": rows, "b": [0, -0.0]})
        _, system = cli.load_problem(path)
        want = np.array([[float(v) for v in row] for row in rows])
        assert system.rows.tobytes() == want.tobytes()
        assert system.offsets.tobytes() == np.array([0.0, -0.0]).tobytes()

    def test_bench_skips_them(self, tmp_path):
        for name, data in MALFORMED.items():
            (tmp_path / f"{name}.json").write_bytes(data)
        write_problem(tmp_path / "pair.json", {"A": [[1], [-1]], "b": [1, 1]})
        proc = invoke("bench", str(tmp_path))
        assert proc.returncode == 0
        assert [line.split(",")[0] for line in proc.stdout.splitlines()[1:]] == ["pair"]
        assert proc.stderr.count("epicut: skipping") == len(MALFORMED)
        assert "Traceback" not in proc.stderr


class TestBenchCommand:
    def test_empty_dir_header_only(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        proc = invoke("bench", str(empty))
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "name,n,m,verdict,level_queries,ellipsoid_iters,wall_ms"
        ]

    def test_rows_per_instance_and_mode(self, tmp_path):
        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        write_problem(bench_dir / "a.json", {"A": [[1], [-1]], "b": [1, 1]})
        write_problem(bench_dir / "b.json", {"A": [[1], [-1]], "b": [-1, -1]})
        write_problem(
            bench_dir / "c.json",
            {"A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [-1, -1, -1, -1]},
        )
        (bench_dir / "broken.json").write_text("{nope")
        proc = invoke("bench", str(bench_dir))
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 + 3  # header + 3 instances
        assert "skipping" in proc.stderr
        verdicts = [line.split(",")[3] for line in lines[1:]]
        assert verdicts == ["InfeasibleNonStrict", "Feasible", "Feasible"]

    def test_undecided_row_keeps_its_counts(self, tmp_path, monkeypatch, capsys):
        from epicut import cli, lp

        # x <= 0 and x >= 0 never reach f < 0; without the certificate
        # try, the one metastep (which certifies min f = 0) ends Undecided.
        monkeypatch.setattr(lp, "_active_certificate", lambda *args: None)
        write_problem(tmp_path / "pair.json", {"A": [[1], [-1]], "b": [0, 0]})
        assert cli.main(["bench", str(tmp_path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        name, _, _, verdict, queries, iters, _ = rows[1].split(",")
        assert (name, verdict, queries) == ("pair", "Undecided", "1")
        assert int(iters) > 0

    def test_missing_dir_rejected(self):
        assert invoke("bench", "/nonexistent/dir").returncode == 64

    def test_flags_it_does_not_read_rejected(self, tmp_path):
        assert invoke("bench", str(tmp_path), "--tol", "1e-6").returncode == 0
        assert invoke("bench", str(tmp_path), "--eps", "1e-3").returncode == 64


class TestGrammar:
    def test_no_command_is_usage_error(self):
        assert invoke().returncode == 64

    def test_readme_flag_table_matches_parser(self):
        import argparse
        import re

        from epicut import cli

        documented = {}
        for line in README.read_text().splitlines():
            row = re.match(r"\| `(--[\w-]+)` \| ([^|]*) \|", line)
            if row:
                for command in re.findall(r"`([\w-]+)`", row.group(2)):
                    documented.setdefault(command, set()).add(row.group(1))
        (commands,) = [action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        taken = {
            name: {flag for action in sub._actions for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"}
            for name, sub in commands.items()
        }
        assert documented == taken

    def test_unknown_command(self):
        assert invoke("frobnicate").returncode == 64

    def test_unknown_flag(self, unit_box):
        assert invoke("decide", unit_box, "--bogus").returncode == 64

    def test_removed_cut_mode_rejected(self, unit_box):
        for mode in ("deep", "central"):
            proc = invoke("decide", unit_box, "--cut", mode)
            assert proc.returncode == 64
            assert "unrecognized arguments: --cut" in proc.stderr

    def test_report_keys_stable_across_commands(self, unit_box, tmp_path):
        abs_path = write_problem(
            tmp_path / "abs.json", {"A": [[1], [-1]], "b": [-1, -1]}
        )
        schema = json.loads(REPORT_SCHEMA.read_text())
        config_schema = schema["properties"]["config"]
        for argv in (["decide", unit_box], ["find-point", unit_box],
                     ["minimize", abs_path, "--radius", "2", "--x0", "0.6"]):
            report = json.loads(invoke(*argv).stdout)
            assert sorted(report) == sorted(schema["required"])
            assert sorted(report["config"]) == sorted(config_schema["required"])


class TestFlagValues:
    @pytest.mark.parametrize("argv", [
        pytest.param(["minimize", "{abs}", "--radius", "2", "--metasteps", "0"],
                     id="metasteps-0"),
        pytest.param(["minimize", "{abs}", "--radius", "2", "--eps", "0"], id="eps-0"),
        pytest.param(["minimize", "{abs}", "--radius", "2", "--eps", "2"],
                     id="eps-equal-to-radius"),
        pytest.param(["minimize", "{abs}", "--radius", "2", "--eps", "3"],
                     id="eps-above-radius"),
        pytest.param(["minimize", "{abs}", "--radius", "2", "--radius-growth", "0.5"],
                     id="radius-growth-0.5"),
        pytest.param(["decide", "{abs}", "--tol", "0"], id="decide-tol-0"),
        pytest.param(["bench", "{dir}", "--tol", "0"], id="bench-tol-0"),
        pytest.param(["decide", "{abs}", "--tol", "nan"], id="decide-tol-nan"),
        pytest.param(["find-point", "{abs}", "--tol", "nan"], id="find-point-tol-nan"),
        pytest.param(["minimize", "{abs}", "--radius", "inf"], id="minimize-radius-inf"),
        # The solver squares distances in the ball; R^2 must be finite.
        pytest.param(["minimize", "{abs}", "--radius", "1e160"], id="minimize-radius-1e160"),
        pytest.param(["minimize", "{abs}", "--radius", "1e200"], id="minimize-radius-1e200"),
        # R^2 = 1e-320 lies below the ball's pivot floor.
        pytest.param(["minimize", "{abs}", "--radius", "1e-160", "--eps", "1e-170"],
                     id="minimize-radius-square-underflows"),
        # The second ball's R = 1e155 has no finite square: its ball cut's
        # slack would overflow and read as an empty intersection.
        pytest.param(["minimize", "{abs}", "--radius", "1e153", "--radius-growth", "1e2",
                      "--metasteps", "2"], id="minimize-grown-radius-square-overflows"),
    ])
    def test_invalid_value_exit_64(self, tmp_path, capsys, argv):
        from epicut import cli

        suite = tmp_path / "suite"
        suite.mkdir()
        abs_path = write_problem(suite / "abs.json", {"A": [[1], [-1]], "b": [1, 1]})
        argv = [a.format(abs=abs_path, dir=suite) for a in argv]
        assert cli.main(argv) == cli.EXIT_USAGE == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("epicut: error: --")
        assert captured.err.count("\n") == 1


class TestInProcessCalls:
    def test_parser_built_once_per_process(self, unit_box, contradictory, monkeypatch,
                                           capsys):
        from epicut import cli

        real = cli.build_parser
        built = []

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        for _ in range(4):
            for path in (unit_box, contradictory):
                cli.main(["decide", path])
                cli.main(["find-point", path])
            with pytest.raises(SystemExit):
                cli.main(["decide", unit_box, "--bogus"])
        capsys.readouterr()
        assert len(built) == 1

    def test_repeated_calls_give_the_same_reports(self, unit_box, tmp_path,
                                                  monkeypatch):
        from epicut import cli, errors

        abs_path = write_problem(tmp_path / "abs.json", {"A": [[1], [-1]], "b": [-1, -1]})
        runs = [["decide", unit_box], ["find-point", unit_box],
                ["minimize", abs_path, "--radius", "2", "--x0", "0.6"]]

        def call(argv):
            return in_process(cli.main, argv)

        first = [call(argv) for argv in runs]
        assert [code for code, _, _ in first] == [0, 0, 0]
        assert all(out and not err for _, out, err in first)

        assert call(["decide", unit_box, "--eps", "0"]) == (
            64, "", "epicut: error: unrecognized arguments: --eps 0\n")

        def boom(*args, **kwargs):
            raise errors.DegenerateShape("synthetic failure")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "decide_feasibility", boom)
            assert call(["decide", unit_box]) == (
                70, "", "epicut: internal error: DegenerateShape: synthetic failure\n")

        assert [call(argv) for argv in runs] == first


# Command lines main() must answer as the top-level parser's parse_args
# does: every one exits inside argparse.  {path} is the unit box.
PARSER_EXITS = [
    [], ["nosuch"], ["-h"], ["decide", "-h"], ["decide"], ["minimize", "{path}"],
    ["decide", "{path}", "--eps", "0"],
    ["bench"], ["--tol", "1", "decide", "{path}"], ["decide", "{path}", "--he"],
    ["decide", "{path}", "--", "x"], ["find-point", "{path}", "--tol=1e-6", "a", "b"],
    ["minimize", "{path}", "--radius", "x"], ["decide", "{path}", "-h", "--bogus"],
]

# Command lines that parse: main() must see the namespace parse_args gives.
PARSER_NAMESPACES = [
    ["decide", "{path}"], ["decide", "--", "{path}"], ["find-point", "{path}", "--to", "1e-6"],
    ["minimize", "{path}", "--radius", "2", "--x0=-0.5,0.5", "--radius-g", "2"],
    ["bench", "{dir}", "--tol=1e-6"],
]


class TestOneParserPass:
    @pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
    def test_exits_as_the_top_level_parser(self, unit_box, argv):
        from epicut import cli

        argv = [a.format(path=unit_box) for a in argv]
        want = in_process(lambda v: cli.build_parser().parse_args(v), argv)
        assert want[0] in (0, cli.EXIT_USAGE)
        assert in_process(cli.main, argv) == want

    @pytest.mark.parametrize("argv", PARSER_NAMESPACES, ids=" ".join)
    def test_namespace_of_the_top_level_parser(self, unit_box, monkeypatch, argv):
        from epicut import cli

        argv = [a.format(path=unit_box, dir=os.path.dirname(unit_box)) for a in argv]
        seen = []
        check = cli._check_flags
        monkeypatch.setattr(cli, "_check_flags", lambda args: seen.append(vars(args)) or
                            check(args))
        code, _, err = in_process(cli.main, argv)
        assert code == 0 and err == ""
        want = vars(cli.build_parser().parse_args(argv))
        assert want.pop("command") == argv[0]
        assert seen == [want]


# Names, --x0 and --trace strings a report must escape as json does.
AWKWARD_STRINGS = ['say "hi"', "back\\slash", "tab\tline\ncr\rbell\x07del\x7f",
                   "ünïcødé ☃ 𝄞 \u2028", ""]


class TestReportWriter:
    @staticmethod
    def printed(monkeypatch, argv):
        """main(argv)'s stdout and the report dict it printed."""
        from epicut import cli

        reports = []
        emit = cli._emit
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_emit", lambda report: reports.append(report) or emit(report))
            code, out, err = in_process(cli.main, argv)
        assert code in (0, 1) and err == ""
        (report,) = reports
        return out, report

    @pytest.mark.parametrize("flags", [[], ["--trace", "--timing"]], ids=["plain", "traced"])
    @pytest.mark.parametrize("command", ["decide", "find-point", "minimize"])
    @pytest.mark.parametrize("problem", ["unit_box", "contradictory"])
    def test_every_command_prints_json_dumps_text(self, request, tmp_path, monkeypatch,
                                                  problem, command, flags):
        argv = [command, request.getfixturevalue(problem)]
        if command == "minimize":
            argv += ["--radius", "2", "--x0=-0.0,0.5" if problem == "unit_box" else "--x0=-0.0"]
        if flags:
            argv += ["--trace", str(tmp_path / "trace.jsonl"), "--timing"]
        out, report = self.printed(monkeypatch, argv)
        assert out == json.dumps(report, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("text", AWKWARD_STRINGS)
    def test_strings_escape_as_json_does(self, tmp_path, monkeypatch, text):
        path = write_problem(tmp_path / "pair.json",
                             {"name": text, "A": [[1], [-1]], "b": [-1, -1]})
        trace = str(tmp_path / text) if text else ""
        # float() reads surrounding whitespace and non-ASCII digits.
        x0 = "\t\u0660.\u0665\n" if text else ""
        for argv in (["decide", path, "--trace", trace],
                     ["minimize", path, "--radius", "2", "--x0", x0 or "0.5", "--trace", trace]):
            out, report = self.printed(monkeypatch, argv)
            assert report["name"] == text and report["trace_file"] == trace
            assert out == json.dumps(report, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("value", [
        -0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16,
        0, -7, 2**64, True, False, None, [], {}, "", [[]], [{}], {"a": {}}, (1, 2.5),
        {"a": [1, [2.5, None], {"b": [], "c": "\ud800"}], "d": {"e": -0.0}},
        ["\u2028", "é", "\x00"],
    ], ids=repr)
    def test_values_write_as_json_dumps(self, value):
        from epicut import cli

        assert cli._json_text(value) == json.dumps(value, indent=2, allow_nan=False)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.0, math.inf],
                                       {"a": {"b": math.nan}}], ids=repr)
    def test_non_finite_float_raises_value_error(self, value):
        from epicut import cli

        with pytest.raises(ValueError):
            json.dumps(value, indent=2, allow_nan=False)
        with pytest.raises(ValueError):
            cli._json_text(value)


class TestInternalErrors:
    @pytest.mark.parametrize("error", ["DegenerateShape", "DimensionMismatch", "NonFiniteValue"])
    def test_internal_error_exit_70(self, unit_box, monkeypatch, capsys, error):
        from epicut import cli, errors

        def boom(*args, **kwargs):
            raise getattr(errors, error)("synthetic failure")

        monkeypatch.setattr(cli, "decide_feasibility", boom)
        assert cli.main(["decide", unit_box]) == cli.EXIT_INTERNAL == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"epicut: internal error: {error}: synthetic failure\n"

    def test_any_other_error_exit_70(self, unit_box, monkeypatch, capsys):
        from epicut import cli

        def boom(*args, **kwargs):
            raise ZeroDivisionError("synthetic failure")

        monkeypatch.setattr(cli, "decide_feasibility", boom)
        assert cli.main(["decide", unit_box]) == cli.EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "epicut: internal error: ZeroDivisionError: synthetic failure\n"
