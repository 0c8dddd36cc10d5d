import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = [sys.executable, "-m", "epicut"]
REPORT_SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "run_report.schema.json"
README = Path(__file__).resolve().parent.parent / "README.md"


def invoke(*argv):
    return subprocess.run(
        RUN + list(argv), capture_output=True, text=True, timeout=120
    )


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

    def test_infeasible_exit_one_with_certificate(self, contradictory):
        proc = invoke("decide", contradictory)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["verdict"] == "InfeasibleNonStrict"
        cert = report["certificate"]
        assert cert is not None
        assert cert[0] == pytest.approx(cert[1], abs=1e-6)
        assert report["d_star"] <= 1e-7

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

        # Two metasteps reach radius 1e3, far short of the flat row's points.
        monkeypatch.setattr(lp, "_PRIMAL_METASTEPS", 2)
        path = write_problem(tmp_path / "flat.json", {"A": [[-2.989e-07]], "b": [1]})
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["decide", path, "--trace", str(trace)]) == cli.EXIT_UNDECIDED == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "Undecided"
        assert report["certificate"] is None
        assert report["level_queries"] == 2
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
        assert report["radius"] is not None

    def test_contradictory_proven(self, contradictory):
        proc = invoke("find-point", contradictory)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["verdict"] == "InfeasibleProven"
        assert report["value"] > 1e-7

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
        assert report["radius"] == 0.0
        assert report["bracket"] is None and report["depth"] is None

    @pytest.mark.parametrize("command", ["decide", "find-point"])
    @pytest.mark.parametrize("doc, infeasible", [
        # 1 <= x <= 2: the origin is infeasible, so both commands run.
        ({"A": [[-1], [1]], "b": [1, -2]}, False),
        ({"A": [[1], [-1]], "b": [1, 1]}, True),
    ])
    def test_report_carries_the_run_bracket(self, tmp_path, command, doc, infeasible):
        path = write_problem(tmp_path / "p.json", doc)
        report = json.loads(invoke(command, path).stdout)
        lower, upper = report["bracket"]
        assert lower is not None and lower <= upper
        assert report["depth"] is None
        if command == "find-point":
            assert upper == report["value"]
        # An infeasible verdict rests on a run whose lb is above 0.
        assert (lower > 0.0) == infeasible

    def test_all_vacuous_decide_has_no_bracket(self, tmp_path):
        path = write_problem(tmp_path / "vacuous.json", {"A": [[0, 0]], "b": [-1]})
        report = json.loads(invoke("decide", path).stdout)
        assert report["verdict"] == "Feasible"
        assert report["bracket"] is None and report["depth"] is None

    @pytest.mark.parametrize("command", ["decide", "find-point"])
    def test_all_vacuous_trace_file_is_empty(self, tmp_path, command):
        path = write_problem(tmp_path / "vacuous.json", {"A": [[0, 0]], "b": [-1]})
        trace = tmp_path / "trace.jsonl"
        assert invoke(command, path, "--trace", str(trace)).returncode == 0
        assert trace.read_text() == ""

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
        # The first metastep proves BoundaryReached at -1; the second one's
        # ball [-2, 0] holds values below -1.8e308 and raises.  The report
        # is the first one's, not an internal error.
        path = write_problem(tmp_path / "f.json", {"A": [[9e307]], "b": [0]})
        proc = invoke("minimize", path, "--radius", "1")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "BoundaryReached"
        assert report["point"] == [-1.0] and report["value"] == -9e307
        assert report["level_queries"] == 1
        assert report["bracket"][0] <= -9e307 == report["bracket"][1]

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

    @pytest.mark.parametrize("radius", ["1e140", "1e150", "1e153"])
    def test_no_certificate_within_the_rounding_of_the_radius(self, tmp_path, radius):
        # f(x) = x has no minimum.  The incumbent lies about 2 ulps of R
        # inside the sphere, which passed the 10 eps interior test.
        path = write_problem(tmp_path / "line.json", {"A": [[1]], "b": [0]})
        proc = invoke("minimize", path, "--radius", radius, "--metasteps", "1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "BoundaryReached"

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
        ("decide", {"A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [-1, -1, -1, -1]}, []),
        ("find-point", {"A": [[-1], [1]], "b": [1, -3]}, []),
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
        assert trace.read_text().count("\n") > 0


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

        monkeypatch.setattr(lp, "_PRIMAL_METASTEPS", 2)
        write_problem(tmp_path / "flat.json", {"A": [[-2.989e-07]], "b": [1]})
        assert cli.main(["bench", str(tmp_path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        name, _, _, verdict, queries, iters, _ = rows[1].split(",")
        assert (name, verdict, queries) == ("flat", "Undecided", "2")
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
        import contextlib
        import io

        from epicut import cli, errors

        abs_path = write_problem(tmp_path / "abs.json", {"A": [[1], [-1]], "b": [-1, -1]})
        runs = [["decide", unit_box], ["find-point", unit_box],
                ["minimize", abs_path, "--radius", "2", "--x0", "0.6"]]

        def call(argv):
            """(exit code, stdout, stderr) of one in-process call, each
            stream a new one for this call alone."""
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

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
