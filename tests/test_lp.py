import math
from collections import Counter

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
    SolveStatus,
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
from epicut.nnls import min_norm_weights, nnls


def system(rows, offsets):
    return LinearSystem(np.asarray(rows, float), np.asarray(offsets, float))


CONTRADICTORY = system([[1.0], [-1.0]], [1.0, 1.0])  # x <= -1 and x >= 1
# Feasible only at x >= 3.3e6: the normalized row varies by less than
# the solvers' eps across a ball of modest radius.
FLAT_ROW = system([[-2.989e-07]], [1.0])
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
        out = normalize(system(rows, offsets))
        top = np.maximum(np.abs(rows).max(axis=1), np.abs(offsets))
        shift = -np.frexp(top)[1]
        want_rows, want_offsets = [], []
        for a, b in zip(np.ldexp(rows, shift[:, None]), np.ldexp(offsets, shift)):
            na = float(np.linalg.norm(a))
            if na < lp._ZERO_ROW:
                if b > 0.0:
                    want_rows.append(np.zeros(n))
                    want_offsets.append(1.0)
                continue
            s = math.sqrt(na * na + b * b)
            want_rows.append(a / s)
            want_offsets.append(b / s)
        npt.assert_array_equal(out.rows, np.array(want_rows).reshape(-1, n))
        npt.assert_array_equal(out.offsets, want_offsets)

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
        out = decide_feasibility(normalize(FLAT_ROW))
        assert out.verdict is not FeasibilityVerdict.INFEASIBLE_NON_STRICT
        assert out.certificate is None

    def test_flat_row_trace_numbers_every_metastep(self, monkeypatch):
        # Each metastep of the flat row's run ends certified near f = 1, so
        # decide runs six metasteps and joins their reports.
        original, calls = solver.bisect_level, []

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "bisect_level", counted)
        report = decide_feasibility(normalize(FLAT_ROW), trace=True).report
        assert len(calls) == 6
        assert report.level_queries == 6
        assert report.iterations == sum(report.query_iterations)
        queries = [rec.query for rec in report.trace]
        assert queries == sorted(queries)
        assert sorted(set(queries)) == list(range(1, 7))
        for query, used in enumerate(report.query_iterations, 1):
            iterations = [rec.iteration for rec in report.trace if rec.query == query]
            assert iterations == list(range(1, len(iterations) + 1))
            assert len(iterations) <= used

    def test_homogeneous_strict_only(self):
        sys_n = normalize(HOMOGENEOUS_EIGHT)
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.INFEASIBLE_STRICT_ONLY
        q, tol = out.certificate, 1e-7
        assert float(np.min(q)) >= -tol
        assert np.linalg.norm(sys_n.rows.T @ q) <= tol * (1.0 + np.linalg.norm(q))

    def test_square_planted_infeasible(self):
        # n = m = 12: the certificate is tried once the lower bound passes
        # 0, so the run ends with its bracket still open.
        sys_n = normalize(planted_infeasible(np.random.default_rng([0, 12]), 12, 12))
        out = decide_feasibility(sys_n)
        assert out.verdict is FeasibilityVerdict.INFEASIBLE_NON_STRICT
        assert validate_certificate(sys_n, out.certificate)
        assert out.report.status is SolveStatus.BUDGET_EXHAUSTED
        lower, upper = out.report.alpha_bracket
        assert 0.0 < lower < upper

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

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_start_reaches_the_cold_optimum(self, seed):
        # The solution on a prefix of the columns, padded with zeros,
        # starts the solve on all of them.
        rng = np.random.default_rng(200 + seed)
        m, n = int(rng.integers(4, 13)), int(rng.integers(1, 6))
        rows = rng.uniform(-1, 1, (m, n)) if seed % 2 else planted_infeasible(rng, m, n).rows
        matrix, target = self.stacked(rows)
        cold = nnls(matrix, target)
        k = int(rng.integers(1, m))
        start = np.zeros(m)
        start[:k] = nnls(matrix[:, :k], target)
        warm = nnls(matrix, target, start)
        assert float(np.min(warm)) >= 0.0
        assert np.linalg.norm(matrix @ warm - target) == pytest.approx(
            np.linalg.norm(matrix @ cold - target), abs=1e-12)

    def test_warm_windows_match_cold_ones(self, monkeypatch):
        # Each wider certificate window starts from the last one's nnls
        # solution.  Run cold (every start dropped), decide gives the same
        # verdicts, every certificate passes validate_certificate, and the
        # first window that passes it at each incumbent is the same one.
        # (Later windows may differ: a wide window has many q with
        # A^T q = 0, and a warm start keeps the one it has.)
        rng = np.random.default_rng(71)
        systems = [normalize(planted_infeasible(rng, m, 4)) for m in (8, 16, 32, 48)
                   for _ in range(3)]
        systems += [normalize(system(rng.uniform(-1, 1, (m, 3)), rng.uniform(-1, 1, m)))
                    for m in (4, 8, 12) for _ in range(4)]

        def outcomes():
            out = []
            for sys_n in systems:
                got = decide_feasibility(sys_n)
                if got.certificate is not None:
                    assert validate_certificate(sys_n, got.certificate)
                windows = lp._window_multipliers(sys_n, got.report.best_point, 1e-8)
                passing = [validate_certificate(sys_n, q) for q in windows]
                out.append((got.verdict, passing.index(True) if True in passing else None))
            return out

        warm = outcomes()
        kernel = lp.nnls
        monkeypatch.setattr(lp, "nnls", lambda matrix, target, start=None: kernel(matrix, target))
        assert outcomes() == warm
        assert {verdict for verdict, _ in warm} == {
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
        assert decide_feasibility(sys_n).verdict is FeasibilityVerdict.INFEASIBLE_STRICT_ONLY

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
        decision = decide_feasibility(sys_n)
        assert decision.verdict is FeasibilityVerdict.UNDECIDED
        assert decision.certificate is None
        assert decision.d_star == math.inf
        assert decision.report.level_queries == 2
        assert decision.report.iterations > 0
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
            decision = decide_feasibility(sys_n)
            res = find_feasible_point(sys_n)
            outcomes.add(res.outcome)
            if decision.verdict is FeasibilityVerdict.FEASIBLE:
                assert res.outcome is PointSearchOutcome.FEASIBLE_POINT_FOUND
                assert sys_n.violation(res.point) <= 1e-7
            else:
                # find-point reads decide's run: the same certificate and work.
                assert res.outcome is PointSearchOutcome.INFEASIBLE_PROVEN
                assert validate_certificate(sys_n, res.certificate, tol=1e-7)
                npt.assert_array_equal(res.certificate, decision.certificate)
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

        Returns decide's verdict, or "empty" when normalize dropped
        every row."""
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
        got = decide_feasibility(sys_n)
        verdict = got.verdict
        if verdict is FeasibilityVerdict.UNDECIDED:
            # Running out is no verdict, and cannot hide a point with f < 0.
            assert not strictly
            assert got.certificate is None
        elif verdict is FeasibilityVerdict.FEASIBLE:
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
