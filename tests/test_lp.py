import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from epicut import (
    FeasibilityVerdict,
    LinearSystem,
    MaxAffineFunction,
    PointSearchOutcome,
    PreconditionViolated,
    decide_feasibility,
    find_feasible_point,
    global_radius,
    normalize,
    sample_subgradient_norms,
    subgradient_lower_bound_at,
    validate_certificate,
    vertex_enumerate_feasible,
)
from epicut import lp, solver
from epicut import nnls as nnls_module
from epicut.nnls import min_norm_weights, nnls, simplex_system


def system(rows, offsets):
    return LinearSystem(np.asarray(rows, float), np.asarray(offsets, float))


CONTRADICTORY = system([[1.0], [-1.0]], [1.0, 1.0])  # x <= -1 and x >= 1
# Feasible only at x >= 3.3e6: the normalized row varies by less than
# the solvers' eps across a ball of modest radius.
FLAT_ROW = system([[-2.989e-07]], [1.0])
# The same row in two dimensions: decide's first metastep ends at a
# model vertex outside its ball, and the second, centred there, reaches
# f < 0.
FLAT_ROW_2D = system([[-2.989e-07, 2.989e-07]], [1.0])
# Feasible only far out, and so flat there that decide's first metastep
# reads GlobalOptimumCertified with its bracket above 0.
FLAT_PAIR = system([[-3e-7, 3e-7], [-1e-3, 0.0]], [1.0, 1.0])
# Four flat rows in 4-D (three-digit roundings of a seeded flat-row
# system), feasible only about 4.6e6 out.  The pre-step's start has
# f = 6.1e-5 > tol there, so find-point goes on to Gordan's point.
FLAT_QUAD = system(
    [[-3.33e-4, -1.12e-4, -2.95e-4, 1.17e-4], [1.44e-7, -3.16e-7, -2.49e-7, 2.37e-7],
     [9.63e-8, -1.35e-7, -8.68e-8, -1.58e-7], [-3.65e-5, 5.25e-6, -1.80e-5, 1.30e-5]],
    np.ones(4),
)
# Four flat rows in 3-D, drawn the same way, feasible only millions out:
# the pre-step's start lies 3.1e6 out, with f = 0.21 there.
FLAT_QUAD_3D = system(
    [[2.94e-7, -9.12e-7, -3.05e-7], [2.99e-7, 8.27e-8, 1.99e-7],
     [-1.67e-7, 1.48e-5, 1.03e-5], [1.59e-4, 6.58e-4, -5.32e-4]],
    np.ones(4),
)
# x <= 0 and x >= 0: feasible only at 0, where f = 0, so no run finds
# f < 0.
POINT_PAIR = system([[1.0], [-1.0]], [0.0, 0.0])
# x >= 1 and x <= 1 - 3e-8: infeasible by less than tol, so the pre-step
# finds no certificate, its start is the origin (f = 0.71), there is no
# point with f < 0, and both decide and find-point run (two metasteps).
NUDGED_PAIR = system([[-1.0], [1.0]], [1.0, -0.99999997])
UNIT_BOX = system(
    [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [-1.0, -1.0, -1.0, -1.0]
)
# Homogeneous and not strictly feasible: x = 0 is a point, every row is
# active there, and q >= 0 with A^T q = 0 exists (Gordan).  The
# homogeneous fuzz family's seed 59 drew it.
HOMOGENEOUS_EIGHT = system(
    [[1, -2, 2], [0, -2, 2], [2, 1, 2], [-1, 0, 0],
     [2, 1, 2], [-2, -2, 0], [2, 1, 0], [2, -2, 1]],
    np.zeros(8),
)


def below_zero_exactly(rows, offsets, point):
    """rows . point + offsets < 0 on every row, in exact arithmetic on
    the floats as given."""
    x = [Fraction(v) for v in point.tolist()]
    return all(sum(Fraction(a) * v for a, v in zip(row, x)) + Fraction(b) < 0
               for row, b in zip(rows.tolist(), offsets.tolist()))


def planted_infeasible(rng, m, n):
    """Uniform rows projected so that A^T q = 0 for a planted q > 0, with
    b shifted so that b.q > 0 (the benchmark's m-ladder construction)."""
    rows = rng.uniform(-1, 1, (m, n))
    q = rng.uniform(0.1, 1.0, m)
    rows = rows - np.outer(q, q @ rows) / (q @ q)
    offsets = rng.uniform(-1, 1, m)
    offsets = offsets + q * (0.5 - offsets @ q) / (q @ q)
    return system(rows, offsets)


class TestNormalize:
    def test_row_scaling(self):
        out = normalize(system([[3.0, 4.0]], [0.0]))
        npt.assert_allclose(out.rows, [[0.6, 0.8]])
        npt.assert_allclose(out.offsets, [0.0])

    def test_vacuous_row_kept(self):
        # One normalized row per input row, so that a certificate's
        # entries line up with the problem's rows.
        out = normalize(system([[0.0, 0.0], [1.0, 0.0]], [-1.0, 0.0]))
        npt.assert_array_equal(out.rows, [[0.0, 0.0], [1.0, 0.0]])
        npt.assert_array_equal(out.offsets, [-1.0, 0.0])

    def test_unsatisfiable_constant_row_kept(self):
        out = normalize(system([[0.0], [1.0]], [2.0, 0.0]))
        assert out.m == 2
        npt.assert_allclose(out.rows[0], [0.0])
        assert out.offsets[0] == pytest.approx(1.0)

    def test_all_vacuous_feasible_at_the_origin(self):
        # Every row kept as (0, -1): f = -1 everywhere, so the pre-step's
        # start, the origin, is Feasible with no run, and find-point
        # reports it with f = -1.
        out = normalize(system([[0.0, 0.0], [0.0, 0.0]], [-1.0, -3e-200]))
        npt.assert_array_equal(out.rows, np.zeros((2, 2)))
        npt.assert_array_equal(out.offsets, [-1.0, -1.0])
        decision = decide_feasibility(out)
        assert decision.verdict is FeasibilityVerdict.FEASIBLE
        assert decision.report is None
        npt.assert_array_equal(decision.point, [0.0, 0.0])
        found = find_feasible_point(out)
        assert found.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        assert found.metastep_report is None
        npt.assert_array_equal(found.point, [0.0, 0.0])
        assert found.f_value == -1.0

    @pytest.mark.parametrize("k", [-500, 500])
    def test_power_of_two_scale_changes_no_bit(self, k):
        # Rows from 2^-30 to 2^30, so that 2^500 overflows the squared
        # norm of some and 2^-500 brings some below _ZERO_ROW.
        rng = np.random.default_rng(22)
        scales = np.ldexp(1.0, rng.integers(-30, 31, 6))
        rows = rng.uniform(-1, 1, (6, 3)) * scales[:, None]
        offsets = rng.uniform(-1, 1, 6) * scales
        base = normalize(system(rows, offsets))
        scaled = normalize(system(np.ldexp(rows, k), np.ldexp(offsets, k)))
        npt.assert_array_equal(scaled.rows, base.rows)
        npt.assert_array_equal(scaled.offsets, base.offsets)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_row_loop(self, seed):
        # The loop normalize was written as: one np.linalg.norm per row.
        rng = np.random.default_rng(60 + seed)
        m, n = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        rows = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-300, 300, (m, 1))
        offsets = rng.normal(size=m) * 10.0 ** rng.uniform(-300, 300, m)
        rows[rng.random(m) < 0.2] = 0.0
        rows[rng.random(m) < 0.2] *= 1e-160
        offsets[rng.random(m) < 0.2] = 0.0
        out = normalize(system(rows, offsets))
        top = np.maximum(np.abs(rows).max(axis=1), np.abs(offsets))
        shift = -np.frexp(top)[1]
        want_rows, want_offsets = [], []
        for a, b in zip(np.ldexp(rows, shift[:, None]), np.ldexp(offsets, shift)):
            na = float(np.linalg.norm(a))
            if na < lp._ZERO_ROW:
                want_rows.append(np.zeros(n))
                want_offsets.append(float(np.sign(b)))
                continue
            s = math.sqrt(na * na + b * b)
            want_rows.append(a / s)
            want_offsets.append(b / s)
        npt.assert_array_equal(out.rows, np.array(want_rows))
        npt.assert_array_equal(out.offsets, want_offsets)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_constant_row_matches_the_masked_path(self, seed):
        # A vacuous constant row appended changes no bit of the other
        # rows, and is kept as (0, -1).
        rng = np.random.default_rng(90 + seed)
        m, n = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        # Rows of any scale, offsets within 1e6 of their row's scale: no
        # row is constant.
        scales = 10.0 ** rng.uniform(-200, 200, m)
        rows = rng.normal(size=(m, n)) * scales[:, None]
        offsets = rng.normal(size=m) * scales * 10.0 ** rng.uniform(-6, 6, m)
        plain = normalize(system(rows, offsets))
        padded = normalize(system(np.vstack([rows, np.zeros(n)]), np.append(offsets, -1.0)))
        assert plain.m == m and padded.m == m + 1
        npt.assert_array_equal(padded.rows, np.vstack([plain.rows, np.zeros(n)]))
        npt.assert_array_equal(padded.offsets, np.append(plain.offsets, -1.0))

    @pytest.mark.parametrize("rows, offsets, verdict", [
        # x <= -1: tiny, but not a constant row.
        ([[1e-160]], [1e-160], FeasibilityVerdict.FEASIBLE),
        # x <= -1 and x >= 0: the first row's squared norm overflows.
        ([[1e200], [-1.0]], [1e200, 0.0], FeasibilityVerdict.INFEASIBLE_NON_STRICT),
        ([[1e160], [-1.0]], [1e160, 0.0], FeasibilityVerdict.INFEASIBLE_NON_STRICT),
    ], ids=["tiny", "huge", "large"])
    def test_badly_scaled_rows(self, rows, offsets, verdict):
        out = normalize(system(rows, offsets))
        npt.assert_allclose(out.rows[0], [math.sqrt(0.5)])
        npt.assert_allclose(out.offsets[0], math.sqrt(0.5))
        assert decide_feasibility(out).verdict is verdict

    def test_normalized_system_is_its_max_affine_function(self):
        rng = np.random.default_rng(23)
        out = normalize(system(rng.uniform(-5, 5, (7, 3)), rng.uniform(-5, 5, 7)))
        assert isinstance(out, MaxAffineFunction)
        for x in rng.uniform(-3, 3, (20, 3)):
            assert out.violation(x) == out.eval(x)

    def test_offset_norm_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            out = normalize(system(rng.uniform(-5, 5, (m, n)), rng.uniform(-5, 5, m)))
            assert np.linalg.norm(out.offsets) <= math.sqrt(out.m) + 1e-12
            npt.assert_allclose(
                np.linalg.norm(np.hstack([out.rows, out.offsets[:, None]]), axis=1),
                1.0,
            )


class TestDecide:
    def test_contradictory_pair(self):
        sys_n = normalize(CONTRADICTORY)
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.INFEASIBLE_NON_STRICT
        assert out.d_star <= 1e-7
        cert = out.certificate
        # proportional to (1, 1)
        assert cert[0] == pytest.approx(cert[1], abs=1e-6)
        assert validate_certificate(sys_n, cert)

    def test_empty_decision_set_is_feasible(self):
        # |x| <= 1: B.q >= 0 contradicts sum q >= 1 since B < 0
        sys_n = normalize(system([[1.0], [-1.0]], [-1.0, -1.0]))
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.FEASIBLE
        assert out.certificate is None
        assert out.d_star == math.inf

    def test_unit_box_feasible(self):
        sys_n = normalize(UNIT_BOX)
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.FEASIBLE
        assert sys_n.violation(out.point) < 0.0

    def test_nonpositive_half_line_feasible(self):
        # f(0) = 0 exactly: the decision must go on to a point with f < 0.
        sys_n = normalize(system([[1.0]], [0.0]))
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.FEASIBLE
        assert sys_n.violation(out.point) < 0.0
        assert out.d_star == math.inf

    def test_flat_row_never_certified(self):
        out = decide_feasibility(normalize(FLAT_ROW))
        assert out.verdict is not FeasibilityVerdict.INFEASIBLE_NON_STRICT
        assert out.certificate is None

    def test_flat_row_trace_numbers_every_metastep(self, monkeypatch):
        # Without a run-less point, as on a system that _strict_point
        # cannot settle, the 2-D flat row decides Feasible in two
        # metasteps; the report holds both, with their trace records
        # numbered by metastep.
        monkeypatch.setattr(lp, "_strict_point", lambda *args: None)
        original, calls = solver.bisect_level, []

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "bisect_level", counted)
        decision = decide_feasibility(normalize(FLAT_ROW_2D), trace=True)
        report = decision.report
        assert decision.verdict is FeasibilityVerdict.FEASIBLE
        assert len(calls) == 2
        assert report.level_queries == 2
        assert report.iterations == sum(report.query_iterations) == 5
        queries = [rec.query for rec in report.trace]
        assert queries == sorted(queries)
        assert sorted(set(queries)) == [1, 2]
        for query, used in enumerate(report.query_iterations, 1):
            iterations = [rec.iteration for rec in report.trace if rec.query == query]
            assert iterations == list(range(1, len(iterations) + 1))
            assert len(iterations) <= used

    def test_flat_pair_certified_in_its_ball_is_feasible(self, monkeypatch):
        # Without a run-less point, as on a system that _strict_point
        # cannot settle, decide runs.  A bracket above 0 proves nothing
        # beyond its ball, so the run goes on past the first two
        # metasteps, each ended at a model vertex past its sphere, and
        # finds f < 0 in the third: the point.
        monkeypatch.setattr(lp, "_strict_point", lambda *args: None)
        out = decide_feasibility(normalize(FLAT_PAIR))
        assert out.verdict is FeasibilityVerdict.FEASIBLE
        assert out.report.level_queries == 3
        assert out.report.best_value < 0.0
        npt.assert_array_equal(out.point, out.report.best_point)

    def test_flat_rows_at_a_tight_tol_are_feasible(self):
        # Two rows 1e-12 in scale, strictly feasible about 2e13 out.  At
        # tol 1e-13 the pre-step finds no certificate and Gordan's point
        # cancels away, so decide runs.  Its witnesses lie 2e9 to 1.4e10
        # out.  While each witness kept the radius, grown only tenfold a
        # metastep, the run ended short of f < 0, and the certificate try
        # then read q = (0.82, 0.18) as InfeasibleNonStrict: a false
        # verdict.  Balls that hold the incumbent reach a point where
        # A x + b < 0 in exact arithmetic.
        rows = [[-1.8618598753732328e-12, -1.8222634872910807e-12],
                [7.834713001338858e-12, 8.859659139463597e-12]]
        sys_n = normalize(system(rows, [1.0, 1.0]))
        out = decide_feasibility(sys_n, 1e-13)
        assert out.verdict is FeasibilityVerdict.FEASIBLE
        assert out.report is not None and out.certificate is None
        found = find_feasible_point(sys_n, 1e-13)
        assert found.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        for point in (out.point, found.point):
            x = [Fraction(v) for v in point.tolist()]
            assert max(sum(Fraction(a) * v for a, v in zip(row, x)) + 1
                       for row in rows) < 0

    def test_homogeneous_strict_only(self):
        # Not strictly feasible: Gordan's p is 0 up to rounding, which is
        # no verdict; the run and its certificate try decide.
        sys_n = normalize(HOMOGENEOUS_EIGHT)
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.INFEASIBLE_STRICT_ONLY
        assert out.point is None and out.report is not None
        q, tol = out.certificate, 1e-7
        assert float(np.min(q)) >= -tol
        assert np.linalg.norm(sys_n.rows.T @ q) <= tol * (1.0 + np.linalg.norm(q))

    def test_square_planted_infeasible(self):
        # n = m = 12: the least-squares pre-step finds the certificate,
        # so no metastep runs.
        sys_n = normalize(planted_infeasible(np.random.default_rng([0, 12]), 12, 12))
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.INFEASIBLE_NON_STRICT
        assert validate_certificate(sys_n, out.certificate)
        assert out.report is None

    def test_weakly_feasible_point_only(self):
        # x <= 0 and x >= 0: only x = 0; strict version infeasible
        sys_n = normalize(system([[1.0], [-1.0]], [0.0, 0.0]))
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.INFEASIBLE_STRICT_ONLY
        cert = out.certificate
        assert float(np.min(cert)) >= -1e-9
        assert abs(float(sys_n.offsets @ cert)) <= 1e-7
        assert not validate_certificate(sys_n, cert)

    def test_constant_false_row_short_circuits(self):
        sys_n = normalize(system([[0.0], [1.0]], [5.0, -1.0]))
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.INFEASIBLE_NON_STRICT
        assert validate_certificate(sys_n, out.certificate)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            rows = rng.uniform(-1, 1, (m, n))
            offs = rng.uniform(-1, 1, m)
            base = decide_feasibility(normalize(system(rows, offs))).verdict
            scale = rng.uniform(0.1, 10.0, m)
            scaled = decide_feasibility(
                normalize(system(rows * scale[:, None], offs * scale))
            ).verdict
            assert base is scaled

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            decide_feasibility(normalize(UNIT_BOX), tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_tol_that_is_not_finite(self, tol):
        # An infinite tol would read x <= -1, x >= 1 as InfeasibleStrictOnly,
        # and find the origin (f = 0.707) a feasible point.
        s = normalize(CONTRADICTORY)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            decide_feasibility(s, tol=tol)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            find_feasible_point(s, tol)


class TestFarkasLeastSquares:
    """decide's one nnls on [A^T; b^T] q ~ e_{n+1}, before any run."""

    @staticmethod
    def families(seed):
        """(kind, normalized system): planted infeasible systems, strictly
        feasible ones planted about 1e3 from the origin, and equality
        pairs with slack rows through a point of their plane, in turn;
        within the oracle's four dimensions and twelve rows."""
        rng = np.random.default_rng(seed)
        for i in range(60):
            n = int(rng.integers(1, 5))
            if i % 3 == 0:
                yield "infeasible", normalize(
                    planted_infeasible(rng, int(rng.integers(2, 13)), n))
            elif i % 3 == 1:
                m = int(rng.integers(1, 13))
                rows = rng.uniform(-1, 1, (m, n))
                x_star = 1e3 * rng.uniform(-1, 1, n)
                offsets = -(rows @ x_star) - rng.uniform(0.1, 1.0, m)
                yield "far", normalize(system(rows, offsets))
            else:
                pairs, slack = int(rng.integers(1, n + 1)), int(rng.integers(0, 4))
                point = rng.uniform(-2, 2, n)
                plane = rng.uniform(-1, 1, (pairs, n))
                extra = rng.uniform(-1, 1, (slack, n))
                rows = np.vstack([plane, -plane, extra])
                offsets = np.concatenate([-(plane @ point), plane @ point,
                                          -(extra @ point) - rng.uniform(0.1, 1.0, slack)])
                yield "pairs", normalize(system(rows, offsets))

    WANT = {
        "infeasible": FeasibilityVerdict.INFEASIBLE_NON_STRICT,
        "far": FeasibilityVerdict.FEASIBLE,
        "pairs": FeasibilityVerdict.INFEASIBLE_STRICT_ONLY,
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_verdicts_match_the_oracle(self, seed):
        for kind, sys_n in self.families(seed):
            got = decide_feasibility(sys_n)
            assert got.verdict is self.WANT[kind]
            want = vertex_enumerate_feasible(sys_n)
            assert want.feasible == (got.verdict is not FeasibilityVerdict.INFEASIBLE_NON_STRICT)
            if got.verdict is FeasibilityVerdict.INFEASIBLE_NON_STRICT:
                # Proven by the pre-step alone.
                assert validate_certificate(sys_n, got.certificate)
                assert got.report is None
            elif got.verdict is FeasibilityVerdict.FEASIBLE:
                assert sys_n.violation(got.point) < 0.0
            else:
                assert got.certificate is not None and got.report is not None

    @pytest.mark.parametrize("seed", [0, 1])
    def test_start_is_the_least_norm_feasible_point(self, seed):
        # A nonzero residual r gives x = r_x / r_b with A x + b <= 0 up to
        # rounding: the oracle's least-norm feasible point.
        for kind, sys_n in self.families(seed):
            cert, x, f_x = lp._farkas_least_squares(sys_n, 1e-7)
            if kind == "infeasible":
                assert validate_certificate(sys_n, cert) and x is None and f_x is None
                continue
            assert cert is None
            scale = 1.0 + float(np.linalg.norm(x))
            assert f_x == sys_n.violation(x) <= 1e-9 * scale
            nearest = vertex_enumerate_feasible(sys_n).min_norm_point
            assert float(np.linalg.norm(x - nearest)) <= 1e-6 * scale

    def test_feasible_origin_starts_there(self):
        # q = 0 leaves r = e_{n+1}: the origin, with f there.
        sys_n = normalize(UNIT_BOX)
        cert, x, f_x = lp._farkas_least_squares(sys_n, 1e-7)
        assert cert is None
        npt.assert_array_equal(x, [0.0, 0.0])
        assert f_x == sys_n.violation(x) < 0.0

    def test_start_is_evaluated_once(self, monkeypatch):
        # The pre-step evaluates f at its start, and decide and find-point
        # read that value: each makes one evaluation there, whether the
        # start is find-point's answer (1 <= x <= 2), decide's (the unit
        # box), or neither, before Gordan's point (the flat quad) or the
        # run (the nudged pair).  A certificate leaves no start.
        raws = (system([[-1.0], [1.0]], [1.0, -2.0]), UNIT_BOX, FLAT_QUAD, NUDGED_PAIR)
        systems = [normalize(raw) for raw in raws]
        starts = [lp._farkas_least_squares(sys_n, 1e-7)[1] for sys_n in systems]
        seen = []
        violation = lp.LinearSystem.violation

        def counted(self, x):
            seen.append(np.array(x, dtype=float))
            return violation(self, x)

        monkeypatch.setattr(lp.LinearSystem, "violation", counted)
        for search in (decide_feasibility, find_feasible_point):
            for sys_n, start in zip(systems, starts):
                seen.clear()
                search(sys_n)
                assert sum(x.tobytes() == start.tobytes() for x in seen) == 1
            seen.clear()
            search(normalize(CONTRADICTORY))
            assert seen == []


def families_corpus(seed, per_family):
    """(family, raw system) for nine seeded families within the vertex
    oracle's four dimensions and twelve rows: uniform, small integers,
    homogeneous integers, planted feasible (a quarter about 1e3 out),
    equality pairs with slack rows, thin slabs far out, flat rows,
    planted infeasible, and thin planted (margins 1e-12 to 1e-6, a third
    of them nudged infeasible by that much)."""
    rng = np.random.default_rng(seed)
    for i in range(per_family):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        yield "uniform", system(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m))
        rows = rng.integers(-2, 3, (m, n)).astype(float)
        rows[-1] = rows[int(rng.integers(0, m))]
        yield "integer", system(rows, rng.integers(-2, 3, m))
        yield "homogeneous", system(rng.integers(-2, 3, (m, n)), np.zeros(m))
        m = int(rng.integers(n + 1, 13))
        rows, x = rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, n)
        if i % 4 == 0:
            x *= 1e3 / np.linalg.norm(x)
        yield "planted", system(rows, -rows @ x - rng.uniform(0.1, 1.0, m))
        yield "planted-infeasible", planted_infeasible(rng, m, n)
        rows, x = rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, n)
        margin = 10.0 ** rng.uniform(-12, -6, m)
        yield "thin-planted", system(rows, -rows @ x - (-margin if i % 3 == 0 else margin))
        pairs, slack = int(rng.integers(1, n + 1)), int(rng.integers(0, 4))
        point = rng.uniform(-2, 2, n)
        plane, extra = rng.uniform(-1, 1, (pairs, n)), rng.uniform(-1, 1, (slack, n))
        yield "equality", system(
            np.vstack([plane, -plane, extra]),
            np.concatenate([-(plane @ point), plane @ point,
                            -(extra @ point) - rng.uniform(0.1, 1.0, slack)]))
        a = rng.uniform(-1, 1, n)
        c, w, h = 10.0 ** rng.uniform([0, -12, 0], [4, -5, 4])
        yield "thin-slab", system(np.vstack([a, -a, np.eye(n), -np.eye(n)]),
                                  np.concatenate([[-(c + w), c], np.full(2 * n, -h)]))
        m = int(rng.integers(1, 5))
        scales = 10.0 ** rng.uniform(-12, -3, m)
        yield "flat", system(rng.uniform(-1, 1, (m, n)) * scales[:, None], np.ones(m))


def criterion_07_systems():
    rng = np.random.default_rng(20240816)  # drawn as criterion 07 draws them
    for _ in range(200):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        yield "criterion-07", system(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m))


class TestStrictPoint:
    """decide's and find-point's run-less Feasible point: the pre-step's
    start, or Gordan's point (_strict_point)."""

    def test_feasible_rests_on_an_evaluated_point(self, monkeypatch):
        # Every Feasible decision carries a finite point with f < 0 on a
        # system the vertex oracle calls feasible.  Every verdict is the
        # one the run path gives from the same pre-step, except that a
        # run-less Feasible may stand where the run reads
        # InfeasibleStrictOnly, on an interior thinner than tol, when its
        # point is strictly feasible in exact arithmetic.
        paths = Counter()
        for family, raw in [*criterion_07_systems(), *families_corpus(89, 12)]:
            sys_n = normalize(raw)
            got = decide_feasibility(sys_n)
            cert, start, _ = lp._farkas_least_squares(sys_n, 1e-7)
            # With no Gordan point, and f read as +inf at the start so
            # that the start is not taken either: the run path.
            with monkeypatch.context() as patch:
                patch.setattr(lp, "_strict_point", lambda *args: None)
                run_path = lp._decide_from(sys_n, 1e-7, cert, start, math.inf, False)
            if run_path.verdict is not got.verdict:
                assert run_path.verdict is FeasibilityVerdict.INFEASIBLE_STRICT_ONLY
                assert got.verdict is FeasibilityVerdict.FEASIBLE and got.report is None
                assert below_zero_exactly(sys_n.rows, sys_n.offsets, got.point)
                paths["moved"] += 1
            # The run path's Feasible points are held to the same rule;
            # decide itself needs no run for any Feasible verdict here.
            for decision in (got, run_path):
                if decision.verdict is not FeasibilityVerdict.FEASIBLE:
                    assert decision.point is None
                    continue
                assert np.isfinite(decision.point).all()
                assert sys_n.violation(decision.point) < 0.0
                assert vertex_enumerate_feasible(sys_n).feasible
            if got.verdict is FeasibilityVerdict.FEASIBLE:
                paths["run" if got.report is not None else
                      "start" if np.array_equal(got.point, start) else "gordan"] += 1
            paths["run path"] += run_path.verdict is FeasibilityVerdict.FEASIBLE
        assert paths["start"] and paths["gordan"] and paths["run path"] and paths["moved"]

    def test_thin_planted_run_path_stays_feasible(self, monkeypatch):
        # A thin planted system that a variant of the slope move, one
        # recentring at the old best point instead of at a vertex below
        # U, left Undecided.  The run path (no Gordan point, the start
        # read as f = inf) must still find a point with f < 0.
        family, raw = list(families_corpus(202, 22))[194]
        assert family == "thin-planted"
        sys_n = normalize(raw)
        cert, start, _ = lp._farkas_least_squares(sys_n, 1e-7)
        monkeypatch.setattr(lp, "_strict_point", lambda *args: None)
        run_path = lp._decide_from(sys_n, 1e-7, cert, start, math.inf, False)
        assert run_path.verdict is FeasibilityVerdict.FEASIBLE
        assert run_path.report is not None
        assert sys_n.violation(run_path.point) < 0.0

    def test_start_below_zero_makes_no_gordan_solve(self, monkeypatch):
        calls = []
        solve = lp.min_norm_weights
        monkeypatch.setattr(lp, "min_norm_weights",
                            lambda points: calls.append(points) or solve(points))
        # The unit box's start is the origin, where f < 0.
        sys_n = normalize(UNIT_BOX)
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.FEASIBLE and out.report is None
        npt.assert_array_equal(out.point, [0.0, 0.0])
        assert calls == []
        # 1 <= x <= 2: the start x = 1 has f = 0, so one Gordan solve, of
        # the row tight there and (0, -1), gives the point.
        sys_n = normalize(system([[-1.0], [1.0]], [1.0, -2.0]))
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.FEASIBLE and out.report is None
        assert 1.0 < float(out.point[0]) < 2.0
        assert len(calls) == 1 and calls[0].shape == (2, 2)
        # find-point takes a start with f <= tol, the box's origin and
        # x = 1 above, with no Gordan solve ...
        calls.clear()
        for raw in (UNIT_BOX, system([[-1.0], [1.0]], [1.0, -2.0])):
            res = find_feasible_point(normalize(raw))
            assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        assert calls == []
        # ... and past a start with f > tol makes exactly one, on the one
        # row tight at the flat quad's start.
        res = find_feasible_point(normalize(FLAT_QUAD))
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        assert res.metastep_report is None
        assert len(calls) == 1 and calls[0].shape == (2, 5)

    def test_gordan_points_are_strictly_feasible_in_exact_arithmetic(self):
        # Every point _strict_point gives, whether or not the start
        # already decides, has A x + b < 0 in exact arithmetic on the
        # normalized rows.
        points = 0
        for family, raw in [*criterion_07_systems(), *families_corpus(89, 12)]:
            sys_n = normalize(raw)
            cert, start, _ = lp._farkas_least_squares(sys_n, 1e-7)
            found = None if cert is not None else lp._strict_point(sys_n, start)
            if found is not None:
                x, value = found
                assert value == sys_n.violation(x) < 0.0
                assert below_zero_exactly(sys_n.rows, sys_n.offsets, x)
                points += 1
        assert points > 150

    def test_tight_rows_make_the_solve(self, monkeypatch):
        # 1 <= x <= 2 from its start x = 1, where the first row reads 0
        # and the second -1/sqrt(5): the solve takes the tight row and
        # (0, -1) alone.  Its step y = sqrt(2) would lift the loose row
        # to (sqrt(2) - 1)/sqrt(5) > 0, so x steps half the way to that
        # row's 0: 1.5.
        calls = []
        solve = lp.min_norm_weights
        monkeypatch.setattr(lp, "min_norm_weights",
                            lambda points: calls.append(points.shape) or solve(points))
        sys_n = normalize(system([[-1.0], [1.0]], [1.0, -2.0]))
        x, value = lp._strict_point(sys_n, np.array([1.0]))
        assert calls == [(2, 2)]
        assert float(x[0]) == pytest.approx(1.5, rel=1e-12)
        assert value == sys_n.violation(x) < 0.0

    def test_every_row_when_the_tight_rows_give_no_point(self, monkeypatch):
        # When the tight rows' step gives no f < 0, the same solve on
        # every row follows: m + 1 points, with the whole step y.
        calls = []
        solve = lp.min_norm_weights
        monkeypatch.setattr(lp, "min_norm_weights",
                            lambda points: calls.append(points.shape) or solve(points))
        step = lp._gordan_step
        monkeypatch.setattr(lp, "_gordan_step", lambda system, start, values, tight:
                            None if tight is not None else step(system, start, values, tight))
        sys_n = normalize(system([[-1.0], [1.0]], [1.0, -2.0]))
        x, value = lp._strict_point(sys_n, np.array([1.0]))
        assert calls == [(3, 2)]
        assert 1.0 < float(x[0]) < 2.0 and value == sys_n.violation(x) < 0.0

    def test_thin_slab_reads_feasible_with_no_run(self, monkeypatch):
        # A slab 5.3e-8 wide, 172 from the origin.  The pre-step's start
        # lies on one face (3.0e-12 above it), where the other face reads
        # -3.1e-10 once normalized: thinner than tol, but far past the
        # rounding of the evaluation, so only the first face is tight.
        # Gordan's point of that row steps half the way to the other
        # face, a point strictly inside in exact arithmetic, on the
        # normalized rows and on the rows as drawn.  The run path reads
        # InfeasibleStrictOnly there.
        family, raw = list(families_corpus(202, 9))[79]
        assert family == "thin-slab"
        sys_n = normalize(raw)
        got = decide_feasibility(sys_n)
        assert got.verdict is FeasibilityVerdict.FEASIBLE and got.report is None
        assert got.value == sys_n.violation(got.point) < 0.0
        assert below_zero_exactly(sys_n.rows, sys_n.offsets, got.point)
        assert below_zero_exactly(raw.rows, raw.offsets, got.point)
        cert, start, f_start = lp._farkas_least_squares(sys_n, 1e-7)
        assert cert is None and f_start > 0.0
        monkeypatch.setattr(lp, "_strict_point", lambda *args: None)
        run_path = lp._decide_from(sys_n, 1e-7, cert, start, f_start, False)
        assert run_path.verdict is FeasibilityVerdict.INFEASIBLE_STRICT_ONLY

    def test_find_point_takes_the_gordan_point(self):
        # The 3-D flat quad's start has f = 0.21 > tol, and Gordan's point
        # has f < 0: find-point returns it with no run, as decide does.
        sys_n = normalize(FLAT_QUAD_3D)
        assert sys_n.violation(lp._farkas_least_squares(sys_n, 1e-7)[1]) > 0.1
        res = find_feasible_point(sys_n)
        decision = decide_feasibility(sys_n)
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        assert res.metastep_report is None
        assert res.f_value == sys_n.violation(res.point) < 0.0
        assert decision.verdict is FeasibilityVerdict.FEASIBLE and decision.report is None
        npt.assert_array_equal(res.point, decision.point)

    def test_feasible_decision_carries_its_value(self, monkeypatch):
        # The start (the unit box), Gordan's point (the flat quad) and the
        # run (the flat pair, without Gordan's point) each give Feasible
        # with the f evaluated at its point.
        for raw in (UNIT_BOX, FLAT_QUAD):
            sys_n = normalize(raw)
            decision = decide_feasibility(sys_n)
            assert decision.value == sys_n.violation(decision.point) < 0.0
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_strict_point", lambda *args: None)
            sys_n = normalize(FLAT_PAIR)
            decision = decide_feasibility(sys_n)
        assert decision.report is not None
        assert decision.value == decision.report.best_value == sys_n.violation(decision.point)
        assert decide_feasibility(normalize(CONTRADICTORY)).value is None

    def test_find_point_evaluates_gordans_point_once(self, monkeypatch):
        # find-point reads f at Gordan's point from the decision: one
        # evaluation at its start and one at the point, the value it
        # reports.
        sys_n = normalize(FLAT_QUAD)
        seen = []
        violation = lp.LinearSystem.violation

        def counted(self, x):
            seen.append(np.array(x, dtype=float))
            return violation(self, x)

        monkeypatch.setattr(lp.LinearSystem, "violation", counted)
        res = find_feasible_point(sys_n)
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        assert res.metastep_report is None
        assert len(seen) == 2
        assert seen[1].tobytes() == res.point.tobytes()
        assert res.f_value == violation(sys_n, res.point) < 0.0


class TestValidateCertificate:
    def test_hand_certificate(self):
        sys_n = normalize(CONTRADICTORY)
        assert validate_certificate(sys_n, np.array([1.0, 1.0]))
        assert not validate_certificate(sys_n, np.zeros(2))
        assert not validate_certificate(sys_n, np.array([1.0, -1.0]))

    def test_length_checked(self):
        from epicut import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            validate_certificate(normalize(CONTRADICTORY), np.array([1.0]))


class TestFarkasKernel:
    """epicut.nnls, the Lawson-Hanson kernel, on [A^T; 1^T] q ~ [0; 1]."""

    @staticmethod
    def stacked(rows):
        k, n = rows.shape
        return np.vstack([rows.T, np.ones((1, k))]), np.eye(n + 1)[n]

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_multipliers_found(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 13)), int(rng.integers(1, 6))
        rows = planted_infeasible(rng, m, n).rows
        matrix, target = self.stacked(rows)
        q = nnls(matrix, target)
        assert float(np.min(q)) >= 0.0
        assert np.linalg.norm(matrix @ q - target) <= 1e-12
        cert = min_norm_weights(rows)
        assert float(cert.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(rows.T @ cert) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_strictly_feasible_direction_gives_no_certificate(self, seed):
        # A d <= -0.1 for a unit d, so every q >= 0 with sum 1 has
        # ||A^T q|| >= 0.1; b = 1 would make any Farkas vector prove.
        rng = np.random.default_rng(100 + seed)
        m, n = int(rng.integers(1, 13)), int(rng.integers(1, 6))
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        rows = rng.uniform(-1, 1, (m, n))
        rows -= np.outer(rows @ d + rng.uniform(0.1, 1.0, m), d)
        matrix, target = self.stacked(rows)
        q = nnls(matrix, target)
        # KKT: the gradient w is <= 0, and 0 on the support of q.
        w = matrix.T @ (target - matrix @ q)
        assert float(np.min(q)) >= 0.0
        assert float(np.max(w)) <= 1e-10
        assert np.all(np.abs(w[q > 0.0]) <= 1e-10)
        cert = min_norm_weights(rows)
        assert float(np.min(cert)) >= 0.0
        assert float(cert.sum()) == pytest.approx(1.0, abs=1e-12)
        assert not validate_certificate(system(rows, np.ones(m)), cert)

    @pytest.mark.parametrize("scale", [1e160, 1.0, 1e-160])
    def test_weights_do_not_depend_on_the_row_scale(self, scale):
        # The rows are scaled by a power of two before the row of ones
        # joins them; unscaled, 1e160 gave NaN and 1e-160 gave [1, 0].
        cert = min_norm_weights(np.array([[scale], [-2.0 * scale]]))
        npt.assert_allclose(cert, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)

    @staticmethod
    def from_zero(matrix, target):
        """Lawson and Hanson's method from q = 0, with no Gram solve first."""
        return nnls_module._lawson_hanson(matrix, target, matrix.T @ matrix,
                                          matrix.T @ target)

    @staticmethod
    def tall_problems(count, seed):
        """nnls problems with no more columns than rows, 1 to 9 rows: odd
        ones simplex_system's of k <= n + 1 rows of dimension n <= 8, even
        ones general.  Row scales run from 1e-3 to 1e3, and every fourth
        problem has a near-duplicate row of A (odd) or column of the
        matrix (even), at a relative distance from 1e-12 to 1e-3."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            if i % 2:
                n = int(rng.integers(1, 9))
                k = int(rng.integers(1, n + 2))
                rows = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
                if i % 4 == 3 and k >= 2:
                    rows[1] = rows[0] * (1.0 + 10.0 ** rng.uniform(-12, -3)
                                         * rng.standard_normal(n))
                yield simplex_system(rows)
            else:
                r = int(rng.integers(1, 10))
                k = int(rng.integers(1, r + 1))
                matrix = rng.standard_normal((r, k)) * 10.0 ** rng.uniform(-3, 3, (r, 1))
                if i % 4 == 2 and k >= 2:
                    matrix[:, 1] = matrix[:, 0] * (1.0 + 10.0 ** rng.uniform(-12, -3)
                                                   * rng.standard_normal(r))
                yield matrix, rng.standard_normal(r)

    @staticmethod
    def recorded_starts(monkeypatch):
        """Record the start of every _lawson_hanson run: None from zero."""
        starts = []
        method = nnls_module._lawson_hanson

        def recording(matrix, target, gram, rhs, start=None):
            starts.append(None if start is None else start.copy())
            return method(matrix, target, gram, rhs, start)

        monkeypatch.setattr(nnls_module, "_lawson_hanson", recording)
        return starts

    @staticmethod
    def kkt_gap(matrix, target, q):
        """The largest free gradient entry over _lawson_hanson's own
        threshold (at most 1 where its loop ends by the KKT test), and
        the largest passive |w| over a rounding tolerance."""
        m, k = matrix.shape
        w = matrix.T @ (target - matrix.dot(q))
        scale = float(np.abs(matrix).sum(axis=0).max())
        threshold = 10.0 * np.finfo(float).eps * scale * max(m, k)
        size = np.linalg.norm(matrix)
        tol = 100.0 * np.finfo(float).eps * max(m, k) * size * (
            size * np.linalg.norm(q) + np.linalg.norm(target))
        free = w[q == 0.0]
        return (float(free.max()) / threshold if free.size else -math.inf,
                float(np.abs(w[q > 0.0]).max(initial=0.0)) / tol)

    def test_one_step_matches_the_cold_start(self, monkeypatch):
        # A full-rank problem whose Gram solve is positive returns that
        # solve, with no run of the method: the last solve of the method
        # from zero whenever the method lets every column in, the same
        # bits.
        # A near-duplicate column may stay out of the cold solution (its
        # gradient falls below the rounding threshold) while the one
        # solve splits the weight between the pair; both then meet the
        # KKT conditions up to rounding.
        starts = self.recorded_starts(monkeypatch)
        split = positive = 0
        for matrix, target in self.tall_problems(2000, 300):
            del starts[:]
            q = nnls(matrix, target)
            if starts:
                continue  # not one solve: the seeded or the cold method
            positive += 1
            assert (q > 0.0).all()
            cold = self.from_zero(matrix, target)
            if q.tobytes() == cold.tobytes():
                continue
            assert not (cold > 0.0).all()
            split += 1
            assert self.kkt_gap(matrix, target, q)[1] <= 1.0
        assert split <= 20
        assert positive >= 200  # the one-solve path runs

    def test_gram_seeded_results_meet_the_kkt_conditions(self, monkeypatch):
        # A finite Gram solve with an entry <= 0 seeds the method with the
        # solve on its positive entries, when that one is positive.  Each
        # seeded run ends by the KKT test of the method from zero, or
        # reaches the guard and gives way to that method: its bits.
        starts = self.recorded_starts(monkeypatch)
        seeded = resumed = 0
        for matrix, target in self.tall_problems(2000, 300):
            del starts[:]
            q = nnls(matrix, target)
            if not starts or starts[0] is None:
                continue
            seeded += 1
            start = starts[0]
            cols = (start > 0.0).nonzero()[0]
            gram = matrix.T @ matrix
            assert start[cols].tobytes() == np.linalg.solve(
                gram[cols[:, None], cols], (matrix.T @ target)[cols]).tobytes()
            if len(starts) == 2:
                assert starts[1] is None
                assert q.tobytes() == self.from_zero(matrix, target).tobytes()
                continue
            resumed += 1
            free, passive = self.kkt_gap(matrix, target, q)
            assert free <= 1.0 and passive <= 1.0
        assert resumed >= 400 and seeded - resumed >= 20

    def test_resumed_prefixes_meet_the_kkt_conditions(self, monkeypatch):
        # The model step's prefixes k = n + 1 ... n + 3 of one
        # simplex_system, each resumed from the last one's raw solution
        # padded with zeros: every result meets the KKT conditions, or
        # its run reaches the guard and gives way to the cold method.
        starts = self.recorded_starts(monkeypatch)
        resumed = guarded = 0
        rng = np.random.default_rng(301)
        for i in range(600):
            n = int(rng.integers(1, 9))
            rows = rng.standard_normal((n + 3, n)) * 10.0 ** rng.uniform(-3, 3, (n + 3, 1))
            if i % 4 == 3:
                pair = rng.choice(n + 3, 2, replace=False)
                rows[pair[1]] = rows[pair[0]] * (1.0 + 10.0 ** rng.uniform(-12, -3)
                                                 * rng.standard_normal(n))
            # Scaled by the first prefix's largest entry, as the model
            # step scales them.
            matrix, target = simplex_system(rows, float(np.abs(rows[:n + 1]).max()))
            raw = nnls(matrix[:, :n + 1], target)
            for k in (n + 2, n + 3):
                start = np.zeros(k)
                start[:-1] = raw
                del starts[:]
                raw = nnls(matrix[:, :k], target, _start=start)
                if len(starts) == 2:
                    assert raw.tobytes() == self.from_zero(matrix[:, :k], target).tobytes()
                    guarded += 1
                    continue
                resumed += 1
                free, passive = self.kkt_gap(matrix[:, :k], target, raw)
                assert free <= 1.0 and passive <= 1.0
        assert resumed >= 1000 and guarded >= 10

    def test_a_start_that_reaches_the_guard_gives_the_cold_bits(self, monkeypatch):
        # Problem 479 of tall_problems(2000, 300): the Gram seed holds
        # the wrong twin of a near-duplicate pair, and the method from it
        # cycles to the guard (6 settles, where the cold method makes 1)
        # with a free gradient 1.2e6 times the threshold.  That run is
        # thrown away, and nnls returns the cold method's bits.
        matrix, target = next(itertools.islice(self.tall_problems(2000, 300), 479, None))
        starts = self.recorded_starts(monkeypatch)
        q = nnls(matrix, target)
        assert len(starts) == 2 and starts[0] is not None and starts[1] is None
        assert q.tobytes() == self.from_zero(matrix, target).tobytes()
        assert self.kkt_gap(matrix, target, q)[0] <= 1.0
        settles = []
        settle = nnls_module._settle
        monkeypatch.setattr(nnls_module, "_settle",
                            lambda *args: settles.append(None) or settle(*args))
        guarded = nnls_module._lawson_hanson(matrix, target, matrix.T @ matrix,
                                             matrix.T @ target, starts[0].copy())
        assert guarded.tobytes() == q.tobytes()
        assert len(settles) == 6 + 1

    def test_square_positive_problem_takes_one_solve(self, monkeypatch):
        calls = []
        passive_solution = nnls_module._passive_solution
        monkeypatch.setattr(nnls_module, "_passive_solution",
                            lambda *args: calls.append(args) or passive_solution(*args))
        matrix = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        target = matrix @ np.array([1.0, 2.0, 0.5])
        q = nnls(matrix, target)
        assert calls == []
        assert q.tobytes() == np.linalg.solve(matrix.T @ matrix, matrix.T @ target).tobytes()
        assert self.from_zero(matrix, target).tobytes() == q.tobytes()
        assert len(calls) == 3

    def test_negative_entry_runs_the_cold_method(self):
        # The unconstrained solution is (1, -1, 0.5); nnls keeps column 1 out.
        matrix = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        target = matrix @ np.array([1.0, -1.0, 0.5])
        q = nnls(matrix, target)
        assert q[1] == 0.0 and (q[[0, 2]] > 0.0).all()
        assert q.tobytes() == self.from_zero(matrix, target).tobytes()

    def test_cold_windows_certify_decide(self, monkeypatch):
        # Every certificate window is solved cold.  Without the pre-step's
        # certificate or a run-less point, decide's run reaches
        # _active_certificate, as for a system whose least-squares q fails
        # its check: it proves each planted system infeasible and gives
        # both verdicts on random ones; every certificate passes
        # validate_certificate, and some window at the incumbent passes it
        # exactly when the verdict is infeasible.
        # The origin as the start, with f read as +inf there so that it
        # is not taken as a run-less point.
        monkeypatch.setattr(lp, "_farkas_least_squares",
                            lambda sys_n, tol: (None, np.zeros(sys_n.n), math.inf))
        monkeypatch.setattr(lp, "_strict_point", lambda *args: None)
        rng = np.random.default_rng(71)
        planted = [normalize(planted_infeasible(rng, m, 4)) for m in (8, 16, 32, 48)
                   for _ in range(3)]
        random = [normalize(system(rng.uniform(-1, 1, (m, 3)), rng.uniform(-1, 1, m)))
                  for m in (4, 8, 12) for _ in range(4)]
        verdicts = []
        for sys_n in planted + random:
            got = decide_feasibility(sys_n)
            verdicts.append(got.verdict)
            if got.certificate is not None:
                assert validate_certificate(sys_n, got.certificate)
            windows = lp._window_multipliers(sys_n, got.report.best_point, 1e-8)
            assert any(validate_certificate(sys_n, q) for q in windows) == (
                got.verdict is not FeasibilityVerdict.FEASIBLE)
        assert set(verdicts[:len(planted)]) == {FeasibilityVerdict.INFEASIBLE_NON_STRICT}
        assert set(verdicts) == {
            FeasibilityVerdict.FEASIBLE, FeasibilityVerdict.INFEASIBLE_NON_STRICT}


def planted_hull(rng):
    """Rows p + u_k with every u_k orthogonal to p and 0 = sum w_k u_k for
    weights w > 0: the hull lies in the plane y . p = ||p||^2 and holds
    p, so p is its minimum-norm point.  Returns the rows and ||p||^2."""
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 11))
    p = rng.normal(size=n)
    p *= rng.uniform(0.1, 1.0) / np.linalg.norm(p)
    z = rng.normal(size=(m, n))
    z -= np.outer(z @ p, p) / float(p @ p)
    w = rng.uniform(0.1, 1.0, m)
    u = z - (w / w.sum()) @ z
    return p + u, float(p @ p)


def assert_floor(d, norm2):
    """d^2 equals the planted norm2 to 1e-9 relative, and lies above it
    by no more than the rounding of the planted rows."""
    assert d * d <= norm2 * (1.0 + 1e-14)
    assert d * d == pytest.approx(norm2, rel=1e-9)


class TestSubgradientFloor:
    @pytest.mark.parametrize("seed", range(8))
    def test_planted_hull(self, seed):
        # Every row has a nonnegative response at x, so the floor is the
        # distance from 0 to the hull of the rows.
        rng = np.random.default_rng(200 + seed)
        rows, norm2 = planted_hull(rng)
        x = rng.uniform(-1, 1, rows.shape[1])
        response = rng.uniform(0.0, 1.0, rows.shape[0])
        response[0] = 0.0
        assert_floor(subgradient_lower_bound_at(system(rows, response - rows @ x), x), norm2)

    @pytest.mark.parametrize("seed", range(4))
    def test_response_constraint_binds(self, seed):
        # Rows s Q (1, 1) and s Q (-1, 1), response v = (1, -3): L . v >= 0
        # needs L_1 >= 3/4, so the subgradients form the segment from
        # s Q (1/2, 1) to s Q (1, 1), with least norm s sqrt(5/4).  Without
        # the constraint it would be s Q (0, 1), of norm s.
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 6))
        basis = np.linalg.qr(rng.normal(size=(n, 2)))[0]
        scale = rng.uniform(0.5, 2.0)
        rows = scale * np.array([[1.0, 1.0], [-1.0, 1.0]]) @ basis.T
        d = subgradient_lower_bound_at(system(rows, [1.0, -3.0]), np.zeros(n))
        assert_floor(d, 1.25 * scale * scale)

    def test_single_row(self):
        sys_n = normalize(system([[1.0]], [-1.0]))
        # normalized row (1, -1)/sqrt(2); at x = 2 the only subgradient
        # is 1/sqrt(2)
        d = subgradient_lower_bound_at(sys_n, np.array([2.0]))
        assert d == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_huge_rows_have_a_finite_floor(self):
        # [2/3, 1/3] makes A^T L = 0, so the floor is 0; the unscaled
        # kernel returned NaN weights here.
        assert subgradient_lower_bound_at(system([[1e160], [-2e160]], [1, 1]), [0]) == 0.0

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_floor_scales_with_the_rows(self, scale):
        # The floor of rows s and 2 s is s; ||p||^2 and points . p would
        # underflow or overflow at these scales.
        floor = subgradient_lower_bound_at(system([[scale], [2.0 * scale]], [1, 1]), [0])
        assert floor == pytest.approx(scale, rel=1e-12, abs=0.0)

    def test_infeasible_pair_floor_zero(self):
        sys_n = normalize(CONTRADICTORY)
        d = subgradient_lower_bound_at(sys_n, np.array([0.0]))
        assert d <= 1e-3

    def test_precondition(self):
        sys_n = normalize(system([[1.0]], [-1.0]))
        with pytest.raises(PreconditionViolated):
            subgradient_lower_bound_at(sys_n, np.array([0.0]))  # f(0) < 0

    def test_floor_below_sampled_norms(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 10:
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            sys_n = normalize(system(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m)))
            x = rng.uniform(-2, 2, n)
            if sys_n.violation(x) < 0:
                continue
            d = subgradient_lower_bound_at(sys_n, x)
            norms = sample_subgradient_norms(sys_n, x, count=32, seed=done)
            assert float(np.min(norms)) >= d - 1e-6
            done += 1

class TestGlobalRadius:
    def test_single_row_closed_form(self):
        sys_n = normalize(system([[1.0]], [-1.0]))
        rb = global_radius(sys_n)
        assert rb.d_lower == pytest.approx(math.sqrt(0.5), abs=1e-6)
        assert rb.radius == pytest.approx(math.sqrt(3.0), abs=1e-5)

    @pytest.mark.parametrize("seed", range(8))
    def test_planted_hull(self, seed):
        rows, norm2 = planted_hull(np.random.default_rng(400 + seed))
        assert_floor(global_radius(system(rows, -np.ones(rows.shape[0]))).d_lower, norm2)

    def test_weakly_feasible_rejected(self):
        sys_n = normalize(system([[1.0], [-1.0]], [0.0, 0.0]))
        with pytest.raises(PreconditionViolated, match="no global floor"):
            global_radius(sys_n)

    def test_flat_row_has_no_global_floor(self):
        # Strictly feasible, but the row's squared norm is below tol: no
        # floor, and no claim about feasibility either.
        with pytest.raises(PreconditionViolated, match="no global floor"):
            global_radius(normalize(FLAT_ROW))


class TestFindFeasiblePoint:
    def test_origin_short_circuit(self):
        res = find_feasible_point(normalize(UNIT_BOX))
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        npt.assert_allclose(res.point, [0.0, 0.0])
        # With f(0) <= 0 the pre-step's start is the origin itself (q = 0,
        # r = e_{n+1}): every bit of it, f(0) as the value, no run and no
        # certificate, on a seeded family with homogeneous rows among them.
        rng = np.random.default_rng(47)
        for k in range(320):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 13))
            offsets = rng.uniform(-1.0, 0.0, m)
            if k % 4 == 0:
                offsets[rng.uniform(size=m) < 0.5] = 0.0
            sys_n = normalize(system(rng.uniform(-1, 1, (m, n)), offsets))
            origin = np.zeros(n)
            res = find_feasible_point(sys_n)
            assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
            assert res.point.tobytes() == origin.tobytes()
            assert res.f_value == sys_n.violation(origin) <= 0.0
            assert res.metastep_report is None and res.certificate is None

    def test_origin_within_tol_takes_the_start(self):
        # x >= 1e-9: f(0) = 1e-9 lies in (0, tol], and the answer is the
        # pre-step's start, the nearest feasible point, not the origin.
        sys_n = normalize(system([[-1.0]], [1e-9]))
        assert 0.0 < sys_n.violation(np.zeros(1)) <= 1e-7
        res = find_feasible_point(sys_n)
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        npt.assert_array_equal(res.point, lp._farkas_least_squares(sys_n, 1e-7)[1])
        assert float(res.point[0]) == pytest.approx(1e-9, rel=1e-12)
        assert res.f_value == sys_n.violation(res.point) <= 0.0
        assert res.metastep_report is None and res.certificate is None

    def test_search_away_from_origin(self):
        # 1 <= x <= 2: origin infeasible, must move right
        sys_n = normalize(system([[-1.0], [1.0]], [1.0, -2.0]))
        res = find_feasible_point(sys_n)
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        assert sys_n.violation(res.point) <= 1e-7
        assert 1.0 - 1e-6 <= float(res.point[0]) <= 2.0 + 1e-6

    def test_infeasible_proven(self):
        # Proven by the pre-step's certificate, before any run: no point,
        # value or radius.
        sys_n = normalize(CONTRADICTORY)
        res = find_feasible_point(sys_n)
        assert res.outcome is PointSearchOutcome.INFEASIBLE_PROVEN
        assert validate_certificate(sys_n, res.certificate)
        assert res.point is None and res.f_value is None
        assert res.metastep_report is None

    def test_flat_row_never_proven(self):
        sys_n = normalize(FLAT_ROW)
        res = find_feasible_point(sys_n)
        assert res.outcome is not PointSearchOutcome.INFEASIBLE_PROVEN
        assert res.certificate is None
        if res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND:
            assert sys_n.violation(res.point) <= 1e-7

    def test_nonpositive_half_line_returns_origin(self):
        res = find_feasible_point(normalize(system([[1.0]], [0.0])))  # x <= 0
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        npt.assert_array_equal(res.point, [0.0])
        assert res.f_value == 0.0
        assert res.metastep_report is None and res.certificate is None

    def test_weakly_feasible_incumbent_is_a_point(self):
        # x = 1 is the only feasible point; decide calls it InfeasibleStrictOnly.
        sys_n = normalize(system([[1.0], [-1.0]], [-1.0, 1.0]))
        res = find_feasible_point(sys_n)
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        assert sys_n.violation(res.point) <= 1e-7
        assert res.certificate is None
        assert decide_feasibility(sys_n).verdict is FeasibilityVerdict.INFEASIBLE_STRICT_ONLY

    def test_takes_the_pre_step_point(self):
        # 1 <= x <= 2: the pre-step's start is the nearest feasible point,
        # x = 1, on the boundary, so there is no run.
        sys_n = normalize(system([[-1.0], [1.0]], [1.0, -2.0]))
        res = find_feasible_point(sys_n)
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        npt.assert_array_equal(res.point, lp._farkas_least_squares(sys_n, 1e-7)[1])
        assert float(res.point[0]) == pytest.approx(1.0, abs=1e-12)
        assert res.f_value == sys_n.violation(res.point) <= 1e-7
        assert res.metastep_report is None
        assert res.certificate is None

    def test_runs_the_decide_run(self):
        # The nudged pair's start has f = 0.71 and it has no point with
        # f < 0: find-point runs decide's run from the start and reads its
        # best point, with f <= tol, as a point.
        sys_n = normalize(NUDGED_PAIR)
        assert sys_n.violation(lp._farkas_least_squares(sys_n, 1e-7)[1]) > 0.1
        res = find_feasible_point(sys_n)
        decision = decide_feasibility(sys_n)
        assert decision.verdict is FeasibilityVerdict.INFEASIBLE_STRICT_ONLY
        assert decision.point is None
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        assert res.metastep_report.iterations == decision.report.iterations > 0
        npt.assert_array_equal(res.point, decision.report.best_point)
        assert res.metastep_report.config.radius == decision.report.config.radius

    def test_pre_step_solved_once(self, monkeypatch):
        # With a run, without one, and with a certificate.
        calls = []
        solve = lp._farkas_least_squares

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(lp, "_farkas_least_squares", counted)
        for raw in (NUDGED_PAIR, CONTRADICTORY, system([[-1.0], [1.0]], [1.0, -2.0])):
            calls.clear()
            find_feasible_point(normalize(raw))
            assert len(calls) == 1

    def test_metastep_cap_is_undecided(self, monkeypatch):
        # Capped at one metastep and without a run-less point, as on a
        # system that _strict_point cannot settle, the 2-D flat row (two
        # metasteps to f < 0) ends with f > 0 and no certificate:
        # Undecided, with its run and no point ...
        monkeypatch.setattr(lp, "_PRIMAL_METASTEPS", 1)
        monkeypatch.setattr(lp, "_strict_point", lambda *args: None)
        sys_n = normalize(FLAT_ROW_2D)
        decision = decide_feasibility(sys_n)
        assert decision.verdict is FeasibilityVerdict.UNDECIDED
        assert decision.certificate is None
        assert decision.d_star == math.inf
        assert decision.report.level_queries == 1
        assert decision.report.iterations > 0
        assert decision.report.best_value > 0.0
        assert decision.point is None
        # ... and the point search reads that run as no point either.
        res = find_feasible_point(sys_n)
        assert res.outcome is PointSearchOutcome.UNDECIDED
        assert res.certificate is None
        assert res.f_value > 1e-7
        assert res.metastep_report.level_queries == 1
        assert res.metastep_report.config.radius == 100.0

    def test_criterion_07_corpus_matches_decide(self):
        rng = np.random.default_rng(20240816)  # drawn as criterion 07 draws them
        outcomes = set()
        for _ in range(200):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            sys_n = normalize(system(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m)))
            decision = decide_feasibility(sys_n)
            res = find_feasible_point(sys_n)
            outcomes.add(res.outcome)
            if decision.verdict is FeasibilityVerdict.FEASIBLE:
                assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
                assert sys_n.violation(res.point) <= 1e-7
            else:
                # find-point reads decide's decision: the same certificate
                # and work, and no run when the pre-step proved it.
                assert res.outcome is PointSearchOutcome.INFEASIBLE_PROVEN
                assert validate_certificate(sys_n, res.certificate, tol=1e-7)
                npt.assert_array_equal(res.certificate, decision.certificate)
                assert (res.metastep_report is None) == (decision.report is None)
                if decision.report is not None:
                    assert res.metastep_report.iterations == decision.report.iterations
        assert len(outcomes) == 2

    @pytest.mark.parametrize("feas_tol", [0.0, -1e-3])
    @pytest.mark.parametrize("rows, offsets", [
        ([[1.0]], [-1.0]),  # x <= 1: the origin is feasible
        ([[-1.0], [1.0]], [1.0, -2.0]),  # 1 <= x <= 2: it is not
    ])
    def test_nonpositive_tolerance_rejected(self, rows, offsets, feas_tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            find_feasible_point(normalize(system(rows, offsets)), feas_tol)

    def test_start_value_bounded_by_offsets(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            sys_n = normalize(system(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m)))
            f = MaxAffineFunction(sys_n.rows, sys_n.offsets)
            assert f.eval(np.zeros(n)) <= np.linalg.norm(sys_n.offsets) + 1e-12


class TestDecisionAgainstOracle:
    def test_mini_corpus(self):
        rng = np.random.default_rng(37)
        seen = set()
        for _ in range(25):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            sys_n = normalize(system(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m)))
            got = decide_feasibility(sys_n)
            want = vertex_enumerate_feasible(sys_n)
            assert got.verdict is not FeasibilityVerdict.INFEASIBLE_STRICT_ONLY
            assert want.feasible == (got.verdict is FeasibilityVerdict.FEASIBLE)
            if got.certificate is not None:
                assert validate_certificate(sys_n, got.certificate)
            seen.add(got.verdict)
        assert len(seen) == 2

    def test_wide_systems(self):
        # n >= m: generic rows are always feasible, so every other system
        # has rows projected onto the complement of a planted q > 0 with
        # b.q > 0.  The oracle enumerates in at most four dimensions, and
        # feasibility depends only on the row space, where it runs.
        rng = np.random.default_rng(43)
        seen = set()
        for i in range(30):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, min(n, 4) + 1))
            rows = rng.uniform(-1, 1, (m, n))
            offsets = rng.uniform(-1, 1, m)
            if i % 2:
                q = rng.uniform(0.1, 1.0, m)
                rows -= np.outer(q, q @ rows) / (q @ q)
                offsets += q * (0.5 - offsets @ q) / (q @ q)
            sys_n = normalize(system(rows, offsets))
            got = decide_feasibility(sys_n)
            _, sv, vt = np.linalg.svd(sys_n.rows)
            basis = vt[: int(np.sum(sv > 1e-12))]
            want = vertex_enumerate_feasible(system(sys_n.rows @ basis.T, sys_n.offsets))
            assert want.feasible == (got.verdict is FeasibilityVerdict.FEASIBLE)
            if got.verdict is not FeasibilityVerdict.FEASIBLE:
                assert got.verdict is FeasibilityVerdict.INFEASIBLE_NON_STRICT
                assert validate_certificate(sys_n, got.certificate)
            seen.add(got.verdict)
        assert len(seen) == 2

    @staticmethod
    def integer_systems(rng, count, homogeneous):
        """Rows and offsets of small integers, so that rows tie exactly at
        integer points (the origin first of all); one row of each system
        repeats another.  Sizes up to the vertex oracle's caps."""
        for _ in range(count):
            m, n = int(rng.integers(1, 13)), int(rng.integers(1, 5))
            rows = rng.integers(-2, 3, (m, n)).astype(float)
            rows[-1] = rows[int(rng.integers(0, m))]
            offsets = np.zeros(m) if homogeneous else rng.integers(-2, 3, m).astype(float)
            yield system(rows, offsets)

    @staticmethod
    def planted_systems(rng, count):
        """Systems with a clear answer, m > n, in alternation: a point x
        with every row at least 0.1 below 0 there, or rows with A^T q = 0
        for a planted q > 0 and b.q = 0.5 (planted_infeasible), which
        stay infeasible under small changes since A has rank n."""
        for i in range(count):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n + 1, 9))
            if i % 2:
                yield planted_infeasible(rng, m, n)
            else:
                rows = rng.uniform(-1, 1, (m, n))
                x = rng.uniform(-1, 1, n)
                yield system(rows, -rows @ x - rng.uniform(0.1, 1.0, m))

    @staticmethod
    def check_against_oracle(raw):
        """decide and find-point on one system against the vertex oracle.

        Returns decide's verdict."""
        sys_n = normalize(raw)
        feasible = vertex_enumerate_feasible(sys_n).feasible
        # Normalized integer rows that are strictly feasible at all are so
        # by far more than 1e-6.
        strictly = vertex_enumerate_feasible(
            system(sys_n.rows, sys_n.offsets + 1e-6)).feasible
        got = decide_feasibility(sys_n)
        verdict = got.verdict
        if verdict is FeasibilityVerdict.UNDECIDED:
            # Running out is no verdict, and cannot hide a point with f < 0.
            assert not strictly
            assert got.certificate is None
        elif verdict is FeasibilityVerdict.FEASIBLE:
            assert strictly
            assert sys_n.violation(got.point) < 0.0
            assert got.certificate is None
        else:
            assert not strictly
            q = got.certificate
            # The certificate proves infeasibility exactly when the
            # verdict says so; a strict-only one is still a Farkas
            # vector: q >= 0 and A^T q = 0 up to tol.
            proves = verdict is FeasibilityVerdict.INFEASIBLE_NON_STRICT
            assert validate_certificate(sys_n, q) == proves == (not feasible)
            assert float(np.min(q)) >= -1e-7
            assert np.linalg.norm(sys_n.rows.T @ q) <= 1e-7 * (1.0 + np.linalg.norm(q))
        point = find_feasible_point(sys_n)
        if feasible:
            assert point.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
            assert sys_n.violation(point.point) <= 1e-7
        else:
            assert point.outcome is PointSearchOutcome.INFEASIBLE_PROVEN
            assert validate_certificate(sys_n, point.certificate)
        return verdict

    def test_integer_ties(self):
        rng = np.random.default_rng(53)
        seen = Counter(self.check_against_oracle(raw)
                       for raw in self.integer_systems(rng, 100, homogeneous=False))
        assert seen[FeasibilityVerdict.UNDECIDED] == 0
        assert {FeasibilityVerdict.FEASIBLE, FeasibilityVerdict.INFEASIBLE_NON_STRICT,
                FeasibilityVerdict.INFEASIBLE_STRICT_ONLY} <= set(seen)

    def test_homogeneous(self):
        # b = 0: the origin is always a point, and decide tells the
        # strictly feasible systems (Feasible) from the others, which get
        # a Farkas vector with b.q = 0 (InfeasibleStrictOnly).
        rng = np.random.default_rng(59)
        seen = Counter(self.check_against_oracle(raw)
                       for raw in self.integer_systems(rng, 100, homogeneous=True))
        assert seen[FeasibilityVerdict.UNDECIDED] == 0
        assert FeasibilityVerdict.INFEASIBLE_NON_STRICT not in seen
        assert seen[FeasibilityVerdict.FEASIBLE] and seen[
            FeasibilityVerdict.INFEASIBLE_STRICT_ONLY]

    def test_near_parallel_rows(self):
        # Each system gains copies of its rows moved by delta in 1e-9 to
        # 1e-3, up to the oracle's 12 rows: near-parallel rows make the
        # kernel's Gram blocks nearly singular.
        rng = np.random.default_rng(61)
        seen = Counter()
        for raw in self.planted_systems(rng, 100):
            delta = 10.0 ** rng.uniform(-9, -3)
            picks = rng.integers(0, raw.m, int(rng.integers(1, 13 - raw.m)))
            rows = raw.rows[picks] + delta * rng.uniform(-1, 1, (picks.size, raw.n))
            offsets = raw.offsets[picks] + delta * rng.uniform(-1, 1, picks.size)
            seen[self.check_against_oracle(system(
                np.vstack([raw.rows, rows]), np.concatenate([raw.offsets, offsets])))] += 1
        assert seen == {FeasibilityVerdict.FEASIBLE: 50,
                        FeasibilityVerdict.INFEASIBLE_NON_STRICT: 50}

    def test_row_scales(self):
        # Every row (A_k, b_k) scaled by its own factor in 1e-8 to 1e8.
        rng = np.random.default_rng(67)
        seen = Counter()
        for raw in self.planted_systems(rng, 100):
            scales = 10.0 ** rng.uniform(-8, 8, raw.m)
            seen[self.check_against_oracle(
                system(raw.rows * scales[:, None], raw.offsets * scales))] += 1
        assert seen == {FeasibilityVerdict.FEASIBLE: 50,
                        FeasibilityVerdict.INFEASIBLE_NON_STRICT: 50}

    @staticmethod
    def check_far_system(raw):
        """decide on a system whose feasible points lie far out, against
        the vertex oracle; returns the verdict.

        A Farkas vector q (sum q = 1) gives f(x) >= b.q - ||A^T q|| ||x||
        at every x, so each certificate must hold at the oracle's
        least-norm point.  Up to tol that allows a certificate for a
        feasible system whose points all lie beyond b.q / ||A^T q||."""
        sys_n = normalize(raw)
        want = vertex_enumerate_feasible(sys_n)
        got = decide_feasibility(sys_n)
        verdict = got.verdict
        assert verdict is not FeasibilityVerdict.UNDECIDED
        if verdict is FeasibilityVerdict.FEASIBLE:
            assert want.feasible
            assert sys_n.violation(got.point) < 0.0
            return verdict
        q = got.certificate
        proves = verdict is FeasibilityVerdict.INFEASIBLE_NON_STRICT
        assert validate_certificate(sys_n, q) == proves
        assert proves or want.feasible
        assert float(np.min(q)) >= -1e-7
        pull = float(np.linalg.norm(sys_n.rows.T @ q))
        assert pull <= 1e-7 * (1.0 + np.linalg.norm(q))
        if want.feasible:
            x = want.min_norm_point
            bound = float(sys_n.offsets @ q) - pull * float(np.linalg.norm(x))
            assert bound <= sys_n.violation(x) + 1e-12
        return verdict

    def test_thin_slabs_far_out(self):
        # c <= a.x <= c + w with w in 1e-12 to 1e-5 and c in 1 to 1e4,
        # inside the box |x_i| <= h, h in 1 to 1e4: feasible when the box
        # reaches the slab, and then only by about w / c.
        rng = np.random.default_rng(71)
        seen = Counter()
        for _ in range(60):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-1, 1, n)
            c, w, h = 10.0 ** rng.uniform([0, -12, 0], [4, -5, 4])
            rows = np.vstack([a, -a, np.eye(n), -np.eye(n)])
            seen[self.check_far_system(system(
                rows, np.concatenate([[-(c + w), c], np.full(2 * n, -h)])))] += 1
        assert set(seen) == set(FeasibilityVerdict) - {FeasibilityVerdict.UNDECIDED}

    def test_flat_rows(self):
        # Up to four rows s_k u_k . x + 1 <= 0, u_k uniform in [-1, 1]^n
        # and s_k in 1e-12 to 1e-3: feasible points, where there are any,
        # lie at least 1 / min_k s_k ||u_k|| out.
        rng = np.random.default_rng(73)
        seen = Counter()
        for _ in range(60):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            scales = 10.0 ** rng.uniform(-12, -3, m)
            seen[self.check_far_system(system(
                rng.uniform(-1, 1, (m, n)) * scales[:, None], np.ones(m)))] += 1
        assert set(seen) == {FeasibilityVerdict.FEASIBLE,
                             FeasibilityVerdict.INFEASIBLE_NON_STRICT}

    @staticmethod
    def point_families():
        """(family, system): criterion 07's 200 systems; 40 planted
        feasible systems whose nearest feasible point lies about 1e3 out
        (every row at least 0.1 below 0 at a point 1e3 from the origin,
        m > n); and 60 flat-row systems as in test_flat_rows."""
        yield from criterion_07_systems()
        rng = np.random.default_rng(79)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n + 1, 9))
            rows = rng.uniform(-1, 1, (m, n))
            x = rng.normal(size=n)
            x *= 1e3 / np.linalg.norm(x)
            yield "planted-far", system(rows, -rows @ x - rng.uniform(0.1, 1.0, m))
        rng = np.random.default_rng(83)
        for _ in range(60):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            scales = 10.0 ** rng.uniform(-12, -3, m)
            yield "flat", system(rng.uniform(-1, 1, (m, n)) * scales[:, None], np.ones(m))

    def test_found_points(self):
        # Every point found has f <= tol on a system the vertex oracle
        # calls feasible.  A run-less answer (no report) is the
        # pre-step's start when f <= tol there, and else Gordan's point,
        # which has f < 0.  The start is the nearest feasible point up to
        # rounding: within 1e-6 (1 + ||x||) of the oracle's least-norm
        # point x, plus the rounding of r_b = 1 - b.q in
        # _farkas_least_squares.  Its absolute error of a few eps is a
        # relative error of about eps (1 + ||x||^2), since
        # r_b = 1 / (1 + ||x||^2); on the flat rows here it reaches
        # 2.9e-5 of ||x|| at 7.9e5 out.
        eps = float(np.finfo(float).eps)
        runless = Counter()
        for family, raw in self.point_families():
            sys_n = normalize(raw)
            res = find_feasible_point(sys_n)
            if res.outcome is not PointSearchOutcome.FEASIBLE_POINT_FOUND:
                continue
            want = vertex_enumerate_feasible(sys_n)
            assert want.feasible
            assert res.f_value == sys_n.violation(res.point) <= 1e-7
            if res.metastep_report is not None:
                continue
            start = lp._farkas_least_squares(sys_n, 1e-7)[1]
            if not np.array_equal(res.point, start):
                runless[family, "gordan"] += 1
                assert res.f_value < 0.0 < sys_n.violation(start) - 1e-7
                continue
            runless[family, "start"] += 1
            x = want.min_norm_point
            size = 1.0 + float(np.linalg.norm(x))
            allowance = (1e-6 + 4.0 * eps * size * size) * size
            assert float(np.linalg.norm(res.point - x)) <= allowance
        assert {family for family, _ in runless} == {"criterion-07", "planted-far", "flat"}
        assert runless["flat", "gordan"] > 0
