import math

import numpy as np
import pytest

from epicut import (
    LinearConstraintSet,
    MaxAffineFunction,
    MetastepConfig,
    QuadraticForm,
    SolveStatus,
    bisect_level,
    run_metasteps,
    solver,
)


def abs_fn():
    return MaxAffineFunction(np.array([[1.0], [-1.0]]), np.zeros(2))


def abs_minus_one():
    return MaxAffineFunction(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetastepConfig(radius=0.0)
        with pytest.raises(ValueError):
            MetastepConfig(radius=1.0, level_tolerance=0.0)
        with pytest.raises(ValueError):
            MetastepConfig(radius=1.0, level_tolerance=2.0)  # eps < R required
        with pytest.raises(ValueError):
            MetastepConfig(radius=1.0, max_metasteps=0)
        with pytest.raises(ValueError):
            MetastepConfig(radius=1.0, radius_growth=0.5)

    def test_budget_formulas(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        d = 2
        expected = math.ceil(2 * (d + 1) * (d + 2) * math.log(2.0 / 1e-6))
        assert cfg.iteration_budget(d) == expected


class TestLevelSetFeasible:
    """A run's bracket read as level-set verdicts on the ball: the incumbent
    point witnesses that {f <= U} meets the ball, and no point of the ball
    (and the side constraints) lies below lb."""

    def test_witness_validity(self):
        f = abs_minus_one()
        x0 = np.array([0.6])
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6, stop_when_high_below=-0.8)
        res = bisect_level(f, x0, cfg)
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert f.eval(res.best_point) == res.best_value < -0.8
        assert abs(float(res.best_point[0] - x0[0])) <= cfg.radius

    def test_bottom_of_bracket_infeasible(self):
        # Stopped early, lb is far under the incumbent, yet f stays above
        # it on the whole ball, not only at the minimizer.
        class FewIterations(MetastepConfig):
            def iteration_budget(self, dim):
                return 3 * dim

        rng = np.random.default_rng(5)
        cfg = FewIterations(radius=2.0, level_tolerance=1e-6)
        for _ in range(5):
            f, minimizer, _ = planted_minimum(rng, 2)
            x0 = minimizer + rng.uniform(0.1, 3.0) * unit(rng, 2)
            res = bisect_level(f, x0, cfg)
            lo, hi = res.alpha_bracket
            assert -math.inf < lo < hi - cfg.level_tolerance
            directions = rng.normal(size=(2000, 2))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            radii = cfg.radius * np.sqrt(rng.uniform(size=(2000, 1)))
            samples = x0 + radii * directions
            assert min(f.eval(x) for x in samples) >= lo

    def test_extra_constraints_respected(self):
        # minimize x^2 with x >= 0.5: level 0.25 is reached, level 0.2 not
        f = QuadraticForm(np.array([[1.0]]))
        extra = LinearConstraintSet(np.array([[-1.0]]), np.array([0.5]))
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        res = bisect_level(f, np.array([1.0]), cfg, extra)
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert float(res.best_point[0]) >= 0.5 - 1e-8
        lo, hi = res.alpha_bracket
        assert 0.2 < lo <= 0.25 <= hi == res.best_value <= lo + cfg.level_tolerance


class TestBisectLevel:
    def test_interior_minimum_certified(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4)
        res = bisect_level(abs_minus_one(), np.array([0.6]), cfg)
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert -1.0 - 1e-4 <= res.best_value <= -1.0 + 1e-4

    def test_boundary_case(self):
        # |x| from x0 = 5 with R = 1: the minimum over the ball [4, 6] is
        # 4, on its sphere.
        cfg = MetastepConfig(radius=1.0, level_tolerance=1e-4)
        res = bisect_level(abs_fn(), np.array([5.0]), cfg)
        assert res.status is SolveStatus.BOUNDARY_REACHED
        lo, hi = res.alpha_bracket
        assert lo <= 4.0 <= res.best_value == hi <= lo + cfg.level_tolerance
        assert float(res.best_point[0]) >= 4.0

    def test_bracket_invariant(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-5)
        res = bisect_level(abs_minus_one(), np.array([0.6]), cfg)
        lo, hi = res.alpha_bracket
        assert lo <= res.best_value <= hi + cfg.level_tolerance
        assert hi - lo <= cfg.level_tolerance

    def test_query_budget(self):
        # A metastep is one query: a single ellipsoid run.
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        res = bisect_level(abs_minus_one(), np.array([0.6]), cfg)
        assert res.level_queries == 1
        assert res.query_iterations == [res.iterations]

    def test_iteration_budget_per_query(self):
        # The run is in R^1, the function's own dimension.
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        res = bisect_level(abs_minus_one(), np.array([0.6]), cfg)
        budget = cfg.iteration_budget(1)
        assert res.query_iterations
        assert max(res.query_iterations) <= budget

    def test_bracket_endpoints_consistent(self):
        # The top is the value of the reported point, the bottom lies
        # under the true minimum -1, and the two are eps apart.
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4)
        f = abs_minus_one()
        res = bisect_level(f, np.array([0.6]), cfg)
        lo, hi = res.alpha_bracket
        assert hi == res.best_value == f.eval(res.best_point)
        assert abs(float(res.best_point[0]) - 0.6) <= 2.0
        assert lo <= -1.0 <= hi <= lo + cfg.level_tolerance

    def test_early_stop_value(self):
        f = abs_minus_one()
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6, stop_when_high_below=-0.5)
        res = bisect_level(f, np.array([0.6]), cfg)
        assert f.eval(res.best_point) == res.best_value < -0.5
        assert res.status is SolveStatus.BUDGET_EXHAUSTED

    def test_open_bracket_short_circuit_is_not_a_proof(self):
        # The first center x0 is already below stop_when_high_below, so the
        # run stops after one iteration with its bracket open.
        f = abs_minus_one()
        x0 = np.array([0.6])
        f0 = float(f.eval(x0))
        cfg = MetastepConfig(radius=2.0, stop_when_high_below=f0 + 1.0)
        res = bisect_level(f, x0, cfg)
        assert res.iterations == 1
        lo, hi = res.alpha_bracket
        assert hi - lo > cfg.level_tolerance
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.best_value == f0
        np.testing.assert_array_equal(res.best_point, x0)

    def test_budget_exhaustion_is_not_a_proof(self):
        # max(|x1 - 1/2|, |x2 - 1/2|) has minimum 0; a one-iteration budget
        # proves only f(0) - R ||g|| = -1.5, and nothing is certified.
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        f = MaxAffineFunction(rows, np.array([-0.5, 0.5, -0.5, 0.5]))

        class OneIteration(MetastepConfig):
            def iteration_budget(self, lifted_dim):
                return 1

        cfg = OneIteration(radius=2.0)
        res = bisect_level(f, np.zeros(2), cfg)
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.alpha_bracket[0] == 0.5 - 2.0
        assert res.level_queries == 1
        assert res.best_value == 0.5
        np.testing.assert_array_equal(res.best_point, np.zeros(2))
        assert run_metasteps(f, np.zeros(2), cfg).status is SolveStatus.BUDGET_EXHAUSTED

    def test_closed_bracket_without_witness_is_level_set_empty(self):
        # x >= 5 lies outside the ball around x0 = 0: the first constraint
        # cut misses the ball, so the minimum over the empty set is +inf.
        f = QuadraticForm(np.array([[1.0]]))
        extra = LinearConstraintSet(np.array([[-1.0]]), np.array([5.0]))
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4)
        res = bisect_level(f, np.zeros(1), cfg, extra)
        assert res.status is SolveStatus.LEVEL_SET_EMPTY
        assert res.best_point is None
        assert res.alpha_bracket == (math.inf, math.inf)
        assert run_metasteps(f, np.zeros(1), cfg, extra).status is SolveStatus.LEVEL_SET_EMPTY

    def test_query_cap_without_witness_is_budget_exhausted(self):
        # x >= 1.5 meets the ball [-2, 2], but the one iteration the query
        # may make is a constraint cut, so no point was ever evaluated.
        class OneIteration(MetastepConfig):
            def iteration_budget(self, dim):
                return 1

        f = QuadraticForm(np.array([[1.0]]))
        extra = LinearConstraintSet(np.array([[-1.0]]), np.array([1.5]))
        cfg = OneIteration(radius=2.0, level_tolerance=1e-4)
        res = bisect_level(f, np.zeros(1), cfg, extra)
        assert res.level_queries == 1
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.best_point is None
        assert res.alpha_bracket == (-math.inf, math.inf)

    def test_zero_subgradient_closes_the_bracket(self):
        # A constant function: the first center is a global minimizer.
        f = MaxAffineFunction(np.zeros((2, 3)), np.array([-2.0, 0.5]))
        res = bisect_level(f, np.ones(3), MetastepConfig(radius=1.0))
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert res.alpha_bracket == (0.5, 0.5)
        assert res.iterations == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("rows, rounding", [
        ([[1e-170]], 0.0), ([[1e-170, -3e-171]], 0.0), ([[-4e-200, 0.0]], 0.0),
        # Values of size 1e160 round at about 1e144.
        ([[1e160]], 1e-12), ([[1e160, -3e159]], 1e-12), ([[-4e200, 0.0]], 1e-12),
    ])
    def test_out_of_range_subgradient_norm(self, rows, rounding):
        # ||g||^2 underflows to 0 (or overflows) although g is finite and
        # not 0: the bracket must still hold the minimum over the ball.
        # Read as a zero subgradient, 1e-170 x would close it at f(0) = 0
        # after one iteration.
        rows = np.array(rows)
        f = MaxAffineFunction(rows, np.zeros(1))
        x0 = np.zeros(rows.shape[1])
        res = bisect_level(f, x0, MetastepConfig(radius=1.0))
        lo, hi = res.alpha_bracket
        # The minimum over the unit ball is -||g||, at -g / ||g||.
        scale = np.abs(rows).max()
        true_min = -scale * float(np.linalg.norm(rows / scale))
        assert lo <= true_min * (1.0 - rounding) and true_min <= hi

    def test_trace_volume_non_increasing_within_query(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-5)
        res = bisect_level(abs_minus_one(), np.array([0.6]), cfg, trace=True)
        assert res.trace
        by_query = {}
        for rec in res.trace:
            by_query.setdefault(rec.query, []).append(rec.log_volume)
        for vols in by_query.values():
            assert all(b <= a + 1e-12 for a, b in zip(vols, vols[1:]))


class TestRunMetasteps:
    def test_sliding_to_far_minimum(self):
        # |x| - 1 from x0 = 10 with R = 2: each metastep slides the ball
        # toward 0; the interior case then certifies the optimum.
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4, max_metasteps=12)
        res = run_metasteps(abs_minus_one(), np.array([10.0]), cfg)
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert res.best_value == pytest.approx(-1.0, abs=1e-3)

    def test_single_metastep_boundary(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4, max_metasteps=1)
        res = run_metasteps(abs_minus_one(), np.array([10.0]), cfg)
        assert res.status is SolveStatus.BOUNDARY_REACHED
        assert res.best_value > -1.0

    def test_interior_stops_in_one_metastep(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4, max_metasteps=16)
        res = run_metasteps(abs_minus_one(), np.array([0.6]), cfg)
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED

    def test_constrained_quadratic(self):
        # min x^2 subject to x >= 0.5: optimum 0.25 on the constraint edge
        f = QuadraticForm(np.array([[1.0]]))
        extra = LinearConstraintSet(np.array([[-1.0]]), np.array([0.5]))
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6, max_metasteps=4)
        res = run_metasteps(f, np.array([1.0]), cfg, extra=extra)
        assert res.best_value == pytest.approx(0.25, abs=1e-4)
        assert float(res.best_point[0]) >= 0.5 - 1e-8

    def test_monotone_descent_and_aggregation(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4, max_metasteps=12)
        res = run_metasteps(abs_minus_one(), np.array([10.0]), cfg, trace=True)
        assert res.iterations == sum(res.query_iterations)
        assert res.level_queries == len(res.query_iterations)
        queries = [rec.query for rec in res.trace]
        assert queries == sorted(queries)

    def test_deep_cuts_reach_minimum(self):
        cfg = MetastepConfig(radius=3.0, level_tolerance=1e-5, max_metasteps=8)
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        f = MaxAffineFunction(rows, np.full(4, -1.0))
        res = run_metasteps(f, np.array([0.9, -0.7]), cfg)
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert res.best_value == pytest.approx(-1.0, abs=1e-4)


class TestTraceOnlyObserves:
    """Tracing records the run; it must not change it."""

    @staticmethod
    def runs():
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        box = MaxAffineFunction(rows, np.full(4, -1.0))
        cfg = MetastepConfig(radius=3.0, level_tolerance=1e-5, max_metasteps=8)
        yield box, np.array([0.9, -0.7]), cfg, None
        yield box, np.array([6.0, 5.0]), cfg, None
        # A side constraint brings in constraint cuts.
        f = QuadraticForm(np.array([[2.0, 0.5], [0.5, 1.0]]))
        extra = LinearConstraintSet(np.array([[-1.0, -1.0]]), np.array([1.0]))
        yield f, np.array([-1.0, 2.0]), MetastepConfig(radius=2.0, level_tolerance=1e-5), extra

    def test_same_result_with_and_without_trace(self, monkeypatch):
        updates = []
        kernel = solver.cut_in_place

        def counting(e, normal, slack):
            out = kernel(e, normal, slack)
            updates.append(out[0])
            return out

        monkeypatch.setattr(solver, "cut_in_place", counting)
        kinds = set()
        for f, x0, cfg, extra in self.runs():
            plain = run_metasteps(f, x0, cfg, extra)
            del updates[:]
            traced = run_metasteps(f, x0, cfg, extra, trace=True)
            assert plain.trace == []
            assert traced.status is plain.status
            assert traced.best_value == plain.best_value
            np.testing.assert_array_equal(traced.best_point, plain.best_point)
            assert traced.iterations == plain.iterations
            assert traced.query_iterations == plain.query_iterations
            # One record per ellipsoid update, numbered by query and iteration.
            assert len(traced.trace) == updates.count(solver.CutKind.UPDATED)
            for query, used in enumerate(traced.query_iterations, start=1):
                iters = [r.iteration for r in traced.trace if r.query == query]
                assert iters == list(range(1, len(iters) + 1))
                assert used - 1 <= len(iters) <= used
            kinds.update(r.cut for r in traced.trace)
        assert kinds == {"objective", "ball", "constraint"}


class TestHook:
    """The hook is tried every 4(d+1) iterations while lb > 0."""

    @staticmethod
    def lifted_box(offset):
        # max_i |x_i| + offset: minimum offset, at the origin.
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        return MaxAffineFunction(rows, np.full(4, float(offset)))

    CFG = MetastepConfig(radius=3.0, level_tolerance=1e-9, max_metasteps=4)

    @pytest.mark.parametrize("offset", [1.0, 0.0, -1.0])
    def test_declining_hook_changes_nothing(self, offset):
        f, x0 = self.lifted_box(offset), np.array([0.9, -0.7])
        plain = bisect_level(f, x0, self.CFG, trace=True)
        seen = []
        hooked = bisect_level(f, x0, self.CFG, trace=True,
                              hook=lambda point: seen.append(point) or False)
        assert hooked.status is plain.status
        assert hooked.alpha_bracket == plain.alpha_bracket
        np.testing.assert_array_equal(hooked.best_point, plain.best_point)
        assert hooked.iterations == plain.iterations
        assert len(hooked.trace) == len(plain.trace)
        for a, b in zip(hooked.trace, plain.trace):
            np.testing.assert_array_equal(a.center, b.center)
            assert (a.query, a.iteration, a.value, a.cut, a.depth, a.log_volume) == (
                b.query, b.iteration, b.value, b.cut, b.depth, b.log_volume)
        # Only a positive minimum lets the lower bound pass 0.
        assert bool(seen) == (offset > 0.0)
        assert len(seen) <= plain.iterations // 12

    @pytest.mark.parametrize("offset", [0.0, -1.0])
    def test_never_called_while_lower_bound_nonpositive(self, offset):
        calls = []
        res = run_metasteps(self.lifted_box(offset), np.array([2.5, 1.0]), self.CFG,
                            hook=lambda point: calls.append(point) or True)
        assert calls == []
        assert res.alpha_bracket[0] <= 0.0
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED

    def test_accepting_hook_ends_the_run_with_a_proven_bracket(self):
        calls = []

        def accept(point):
            calls.append(point)
            return True

        res = run_metasteps(self.lifted_box(1.0), np.array([0.9, -0.7]), self.CFG,
                            hook=accept)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], res.best_point)
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.level_queries == 1
        assert res.iterations % 12 == 0
        lower, upper = res.alpha_bracket
        assert 0.0 < lower <= 1.0 <= upper == res.best_value


def planted_minimum(rng, n):
    """Criterion 06's construction on R^n: n+1 pieces active at the
    minimizer whose gradients positively span R^n (scaled vertices of a
    rotated regular simplex), plus two pieces lying below them."""
    minimizer = rng.uniform(-2, 2, n)
    true_min = float(rng.uniform(-3, 1))
    vertices = np.eye(n + 1) - 1.0 / (n + 1)
    basis = np.linalg.qr(vertices.T)[0][:, :n]
    rotation = np.linalg.qr(rng.normal(size=(n, n)))[0]
    rows = [rng.uniform(0.5, 2.0) * v / np.linalg.norm(v)
            for v in vertices @ basis @ rotation]
    offsets = [true_min - float(g @ minimizer) for g in rows]
    for _ in range(2):
        g = rng.uniform(-2, 2, n)
        rows.append(g)
        offsets.append(true_min - float(g @ minimizer) - rng.uniform(0.3, 2.0))
    return MaxAffineFunction(np.array(rows), np.array(offsets)), minimizer, true_min


def unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


class TestBracketSoundness:
    """alpha_bracket = (lb, U): lb is proven below the minimum over the
    ball, U is the value of the reported point."""

    @pytest.fixture
    def metasteps(self, monkeypatch):
        """Record every metastep's start, config and result."""
        log = []
        original = solver.bisect_level

        def recording(f, x0, cfg, extra=None, **kwargs):
            res = original(f, x0, cfg, extra, **kwargs)
            log.append((f, np.array(x0, dtype=float), cfg, extra, res))
            return res

        monkeypatch.setattr(solver, "bisect_level", recording)
        return log

    @staticmethod
    def check_every_metastep(log):
        for f, x0, cfg, extra, res in log:
            lo, hi = res.alpha_bracket
            assert lo <= hi == res.best_value == f.eval(res.best_point)
            assert np.linalg.norm(res.best_point - x0) <= cfg.radius
            if extra is not None:
                assert extra.normalized_max_violation(res.best_point)[0] <= (
                    cfg.constraint_tolerance
                )

    @pytest.mark.parametrize("n", [2, 8])
    def test_minima_bracket_holds_true_minimum(self, metasteps, n):
        rng = np.random.default_rng(6)
        cfg = MetastepConfig(radius=2.0, level_tolerance=2e-5, max_metasteps=16)
        for _ in range(3):
            f, minimizer, true_min = planted_minimum(rng, n)
            near = minimizer + rng.uniform(0.1, 1.0) * 0.99 * unit(rng, n)
            far = minimizer + rng.uniform(2.5, 6.0) * unit(rng, n)
            for x0 in (near, far):
                res = run_metasteps(f, x0, cfg)
                assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
                lo, hi = res.alpha_bracket
                assert lo <= true_min <= res.best_value == hi <= lo + cfg.level_tolerance
        self.check_every_metastep(metasteps)
        # The far starts recentre, so there were more metasteps than runs.
        assert len(metasteps) > 6

    def test_constrained_quadratic_bracket_holds_true_minimum(self, metasteps):
        # min x^T Q x subject to x1 + x2 >= 1: 0.875 at (1/4, 3/4).  Cuts
        # use the exact constraint, so lb is proven under 0.875; the
        # incumbent may break it by the normalized tolerance, where the
        # minimum is 0.875 (1 - sqrt(2) tol)^2.
        f = QuadraticForm(np.array([[2.0, 0.5], [0.5, 1.0]]))
        extra = LinearConstraintSet(np.array([[-1.0, -1.0]]), np.array([1.0]))
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-5, max_metasteps=8)
        relaxed_min = 0.875 * (1.0 - math.sqrt(2.0) * cfg.constraint_tolerance) ** 2
        for x0 in ([1.5, 1.0], [-1.0, 2.0]):
            res = run_metasteps(f, np.array(x0), cfg, extra=extra)
            assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
            lo, hi = res.alpha_bracket
            assert lo <= 0.875
            assert relaxed_min <= res.best_value == hi <= lo + cfg.level_tolerance
        self.check_every_metastep(metasteps)

    def test_incumbent_cut_away_keeps_bracket_ordered(self):
        # With a loose constraint tolerance the incumbent may break the
        # exact constraint 0.6 x1 + 0.4 x2 + 0.5 <= 0; constraint cuts,
        # which use the exact row, then cut it away, and objective cuts
        # can see f(c) - width above U.  lb must still not pass U.
        f = QuadraticForm(np.diag([1.6, 0.7]))
        row = np.array([0.6, 0.4])
        extra = LinearConstraintSet(row[None, :], np.array([0.5]))
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6, constraint_tolerance=0.1)
        res = bisect_level(f, np.array([-0.6, 0.6]), cfg, extra)
        assert float(row @ res.best_point) + 0.5 > 0.0
        exact_min = 0.25 / (0.36 / 1.6 + 0.16 / 0.7)
        lo, hi = res.alpha_bracket
        assert lo <= hi == res.best_value <= exact_min
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED

    @pytest.mark.parametrize("n", [2, 8])
    def test_early_stop_keeps_a_valid_lower_bound(self, n):
        # Stopped after a few iterations, the run proves nothing about the
        # incumbent but its lb still lies under the minimum: the minimizer
        # is within 1 of x0, inside the ball.
        class FewIterations(MetastepConfig):
            def iteration_budget(self, dim):
                return 5 * dim

        rng = np.random.default_rng(8)
        cfg = FewIterations(radius=2.0, level_tolerance=2e-5)
        for _ in range(5):
            f, minimizer, true_min = planted_minimum(rng, n)
            x0 = minimizer + rng.uniform(0.1, 1.0) * 0.99 * unit(rng, n)
            res = bisect_level(f, x0, cfg)
            assert res.status is SolveStatus.BUDGET_EXHAUSTED
            assert res.iterations == 5 * n
            lo, hi = res.alpha_bracket
            assert -math.inf < lo <= true_min <= res.best_value == hi
            assert hi - lo > cfg.level_tolerance
