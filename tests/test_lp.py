import math
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from epicut import (
    EmptySystem,
    FeasibilityVerdict,
    LinearSystem,
    MaxAffineFunction,
    PointSearchOutcome,
    PreconditionViolated,
    RadiusMethod,
    SolveStatus,
    SolverBudgetExceeded,
    decide_feasibility,
    find_feasible_point,
    global_radius,
    normalize,
    sample_subgradient_norms,
    subgradient_lower_bound_at,
    validate_certificate,
    vertex_enumerate_feasible,
)
from epicut import lp


def system(rows, offsets):
    return LinearSystem(np.asarray(rows, float), np.asarray(offsets, float))


CONTRADICTORY = system([[1.0], [-1.0]], [1.0, 1.0])  # x <= -1 and x >= 1
# Feasible only at x >= 3.3e6: the normalized row varies by less than
# the solvers' eps across a ball of modest radius.
FLAT_ROW = system([[-2.989e-07]], [1.0])
UNIT_BOX = system(
    [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [-1.0, -1.0, -1.0, -1.0]
)


def exhaust_program(monkeypatch, index, drop_witness=False,
                    status=SolveStatus.BUDGET_EXHAUSTED):
    """Make the index-th inner program of the next lp call report
    ``status`` (BudgetExhausted by default); with drop_witness it also
    loses its witness and leaves its bracket open, as a run that ran out
    before any witness.  With index None every program runs untouched.
    Returns the list the programs' results are recorded in."""
    real = lp.run_metasteps
    calls = []

    def fake(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res)
        if len(calls) - 1 == index:
            res = replace(res, status=status)
            if drop_witness:
                lo = res.alpha_bracket[0]
                res = replace(res, best_point=None, alpha_bracket=(lo, lo + 1.0))
        return res

    monkeypatch.setattr(lp, "run_metasteps", fake)
    return calls


class TestNormalize:
    def test_row_scaling(self):
        out = normalize(system([[3.0, 4.0]], [0.0]))
        npt.assert_allclose(out.rows, [[0.6, 0.8]])
        npt.assert_allclose(out.offsets, [0.0])

    def test_vacuous_row_dropped(self):
        out = normalize(system([[0.0, 0.0], [1.0, 0.0]], [-1.0, 0.0]))
        assert out.m == 1
        npt.assert_allclose(out.rows, [[1.0, 0.0]])

    def test_unsatisfiable_constant_row_kept(self):
        out = normalize(system([[0.0], [1.0]], [2.0, 0.0]))
        assert out.m == 2
        npt.assert_allclose(out.rows[0], [0.0])
        assert out.offsets[0] == pytest.approx(1.0)

    def test_all_vacuous_raises(self):
        with pytest.raises(EmptySystem):
            normalize(system([[0.0, 0.0]], [-1.0]))

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
        out = decide_feasibility(normalize(UNIT_BOX))
        assert out.verdict is FeasibilityVerdict.FEASIBLE
        assert out.report.best_value < 0.0

    def test_nonpositive_half_line_feasible(self):
        # f(0) = 0 exactly: the run must go on to a point with f < 0.
        out = decide_feasibility(normalize(system([[1.0]], [0.0])))
        assert out.verdict is FeasibilityVerdict.FEASIBLE
        assert out.report.best_value < 0.0
        assert out.d_star == math.inf

    def test_flat_row_never_certified(self):
        try:
            out = decide_feasibility(normalize(FLAT_ROW))
        except SolverBudgetExceeded:
            return
        assert out.verdict is not FeasibilityVerdict.INFEASIBLE_NON_STRICT

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


class TestSubgradientFloor:
    def test_single_row(self):
        sys_n = normalize(system([[1.0]], [-1.0]))
        # normalized row (1, -1)/sqrt(2); at x = 2 the only subgradient
        # is 1/sqrt(2)
        d = subgradient_lower_bound_at(sys_n, np.array([2.0]))
        assert d == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

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

    def test_budget_exhaustion_raises(self, monkeypatch):
        sys_n = normalize(system([[1.0]], [-1.0]))
        calls = exhaust_program(monkeypatch, 0)
        with pytest.raises(SolverBudgetExceeded):
            subgradient_lower_bound_at(sys_n, np.array([2.0]))
        assert len(calls) == 1

    def test_level_set_empty_raises(self, monkeypatch):
        sys_n = normalize(system([[1.0]], [-1.0]))
        exhaust_program(monkeypatch, 0, status=SolveStatus.LEVEL_SET_EMPTY)
        with pytest.raises(SolverBudgetExceeded):
            subgradient_lower_bound_at(sys_n, np.array([2.0]))


class TestGlobalRadius:
    def test_single_row_closed_form(self):
        sys_n = normalize(system([[1.0]], [-1.0]))
        rb = global_radius(sys_n)
        assert rb.method is RadiusMethod.GLOBAL_C
        assert rb.d_lower == pytest.approx(math.sqrt(0.5), abs=1e-6)
        assert rb.radius == pytest.approx(math.sqrt(3.0), abs=1e-5)

    # An empty level set has no minimum to read a floor from.  The
    # simplex floor program is global_radius's only program.
    @pytest.mark.parametrize("index", [0])
    def test_level_set_empty_raises(self, monkeypatch, index):
        sys_n = normalize(system([[1.0], [-1.0]], [-1.0, 0.0]))  # 0 <= x <= 1
        calls = exhaust_program(monkeypatch, index, status=SolveStatus.LEVEL_SET_EMPTY)
        with pytest.raises(SolverBudgetExceeded):
            global_radius(sys_n)
        assert len(calls) == index + 1

    @pytest.mark.parametrize("index,drop_witness", [(0, False)])
    def test_budget_exhaustion_raises(self, monkeypatch, index, drop_witness):
        sys_n = normalize(system([[1.0], [-1.0]], [-1.0, 0.0]))  # 0 <= x <= 1
        calls = exhaust_program(monkeypatch, index, drop_witness)
        with pytest.raises(SolverBudgetExceeded):
            global_radius(sys_n)
        assert len(calls) == index + 1

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

    def test_search_away_from_origin(self):
        # 1 <= x <= 2: origin infeasible, must move right
        sys_n = normalize(system([[-1.0], [1.0]], [1.0, -2.0]))
        res = find_feasible_point(sys_n)
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        assert sys_n.violation(res.point) <= 1e-7
        assert 1.0 - 1e-6 <= float(res.point[0]) <= 2.0 + 1e-6

    def test_infeasible_proven(self):
        sys_n = normalize(CONTRADICTORY)
        res = find_feasible_point(sys_n)
        assert res.outcome is PointSearchOutcome.INFEASIBLE_PROVEN
        assert res.f_value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)
        assert validate_certificate(sys_n, res.certificate)

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
        assert res.metastep_report is None
        assert res.radius_used == 0.0

    def test_weakly_feasible_incumbent_is_a_point(self):
        # x = 1 is the only feasible point; decide calls it InfeasibleStrictOnly.
        sys_n = normalize(system([[1.0], [-1.0]], [-1.0, 1.0]))
        res = find_feasible_point(sys_n)
        assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
        assert sys_n.violation(res.point) <= 1e-7
        assert res.certificate is None

    def test_runs_the_decide_run(self):
        sys_n = normalize(system([[-1.0], [1.0]], [1.0, -2.0]))  # 1 <= x <= 2
        res = find_feasible_point(sys_n)
        decision = decide_feasibility(sys_n)
        assert res.metastep_report.iterations == decision.report.iterations
        npt.assert_array_equal(res.point, decision.report.best_point)
        assert res.radius_used == decision.report.config.radius

    def test_metastep_cap_is_undecided(self, monkeypatch):
        # Two metasteps reach radius 1e3, far short of the flat row's points.
        monkeypatch.setattr(lp, "_PRIMAL_METASTEPS", 2)
        sys_n = normalize(FLAT_ROW)
        with pytest.raises(SolverBudgetExceeded):
            decide_feasibility(sys_n)
        res = find_feasible_point(sys_n)
        assert res.outcome is PointSearchOutcome.UNDECIDED
        assert res.certificate is None
        assert res.metastep_report.level_queries == 2
        assert res.radius_used == pytest.approx(1e3)

    def test_criterion_07_corpus_matches_decide(self):
        rng = np.random.default_rng(20240816)  # drawn as criterion 07 draws them
        outcomes = set()
        for _ in range(200):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            sys_n = normalize(system(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m)))
            feasible = decide_feasibility(sys_n).verdict is FeasibilityVerdict.FEASIBLE
            res = find_feasible_point(sys_n)
            outcomes.add(res.outcome)
            if feasible:
                assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
                assert sys_n.violation(res.point) <= 1e-7
            else:
                assert res.outcome is PointSearchOutcome.INFEASIBLE_PROVEN
                assert validate_certificate(sys_n, res.certificate, tol=1e-7)
        assert len(outcomes) == 2

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
    def check_against_oracle(raw):
        """decide and find-point on one system against the vertex oracle.

        Returns decide's verdict, "Undecided" when it ran out of
        metasteps, or "empty" when normalize dropped every row."""
        try:
            sys_n = normalize(raw)
        except EmptySystem:
            assert vertex_enumerate_feasible(raw).feasible
            return "empty"
        feasible = vertex_enumerate_feasible(sys_n).feasible
        # Normalized integer rows that are strictly feasible at all are so
        # by far more than 1e-6.
        strictly = vertex_enumerate_feasible(
            system(sys_n.rows, sys_n.offsets + 1e-6)).feasible
        try:
            got = decide_feasibility(sys_n)
        except SolverBudgetExceeded:
            # Running out is no verdict, and cannot hide a point with f < 0.
            assert not strictly
            verdict = "Undecided"
        else:
            verdict = got.verdict
            if verdict is FeasibilityVerdict.FEASIBLE:
                assert strictly
                assert sys_n.violation(got.report.best_point) < 0.0
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
        assert seen["Undecided"] == 0
        assert {FeasibilityVerdict.FEASIBLE, FeasibilityVerdict.INFEASIBLE_NON_STRICT,
                FeasibilityVerdict.INFEASIBLE_STRICT_ONLY} <= set(seen)

    def test_homogeneous(self):
        # b = 0: the origin is always a point, and decide tells the
        # strictly feasible systems (Feasible) from the others, which get
        # a Farkas vector with b.q = 0 (InfeasibleStrictOnly) or, when
        # polishing finds none, no verdict (see CHANGES.md).
        rng = np.random.default_rng(59)
        seen = Counter(self.check_against_oracle(raw)
                       for raw in self.integer_systems(rng, 100, homogeneous=True))
        assert FeasibilityVerdict.INFEASIBLE_NON_STRICT not in seen
        assert seen[FeasibilityVerdict.FEASIBLE] and seen[
            FeasibilityVerdict.INFEASIBLE_STRICT_ONLY]
