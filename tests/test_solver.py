import math

import numpy as np
import pytest

from epicut import (
    CutMode,
    InvalidBracket,
    LevelVerdict,
    LinearConstraintSet,
    MaxAffineFunction,
    MetastepConfig,
    QuadraticForm,
    SolveStatus,
    bisect_level,
    choose_cut_depth,
    level_set_feasible,
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
        assert cfg.query_budget() == math.ceil(math.log2(2 * 2.0 / 1e-6))

    def test_explicit_budget_wins(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6, max_ellipsoid_iters=7)
        assert cfg.iteration_budget(5) == 7


class TestChooseCutDepth:
    def test_values(self):
        assert choose_cut_depth(1.0, 1.0) == 0.0
        assert choose_cut_depth(3.0, 1.0) == 2.0
        # Never negative, even if the incumbent is somehow better.
        assert choose_cut_depth(0.5, 1.0) == 0.0


class TestLevelSetFeasible:
    def setup_method(self):
        self.cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)

    def test_top_of_bracket_immediately_feasible(self):
        f = abs_minus_one()
        out = level_set_feasible(f, np.array([0.6]), self.cfg, -0.4 + 2.0)
        assert out.verdict is LevelVerdict.FEASIBLE_WITNESS
        assert out.iterations == 1

    def test_bottom_of_bracket_infeasible(self):
        f = abs_minus_one()
        out = level_set_feasible(f, np.array([0.6]), self.cfg, -0.4 - 2.0)
        assert out.verdict is LevelVerdict.INFEASIBLE

    def test_near_minimum_level(self):
        f = abs_minus_one()
        out = level_set_feasible(f, np.array([0.6]), self.cfg, -1.0 + 1e-3)
        assert out.verdict is LevelVerdict.FEASIBLE_WITNESS
        assert abs(float(out.witness.x[0])) <= 1e-3 + 1e-9
        assert out.witness_value <= -1.0 + 1e-3 + 1e-9

    def test_witness_validity(self):
        f = abs_minus_one()
        x0 = np.array([0.6])
        f0 = f.eval(x0)
        alpha = -0.8
        out = level_set_feasible(f, x0, self.cfg, alpha)
        assert out.verdict is LevelVerdict.FEASIBLE_WITNESS
        w = out.witness
        assert f.eval(w.x) <= alpha + 1e-9
        lifted = math.hypot(float(w.x[0] - x0[0]), w.y - f0)
        assert lifted <= 2.0 + 1e-9

    def test_bracket_enforced(self):
        f = abs_minus_one()
        with pytest.raises(InvalidBracket):
            level_set_feasible(f, np.array([0.6]), self.cfg, 5.0)
        with pytest.raises(InvalidBracket):
            level_set_feasible(f, np.array([0.6]), self.cfg, -5.0)

    def test_extra_constraints_respected(self):
        # minimize x^2 with x >= 0.5: level 0.3 feasible, level 0.2 not
        f = QuadraticForm(np.array([[1.0]]))
        extra = LinearConstraintSet(np.array([[-1.0]]), np.array([0.5]))
        x0 = np.array([1.0])
        out = level_set_feasible(f, x0, self.cfg, 0.3, extra=extra)
        assert out.verdict is LevelVerdict.FEASIBLE_WITNESS
        assert float(out.witness.x[0]) >= 0.5 - 1e-8
        out = level_set_feasible(f, x0, self.cfg, 0.2, extra=extra)
        assert out.verdict in (LevelVerdict.INFEASIBLE, LevelVerdict.EPSILON_FEASIBLE)


class TestBisectLevel:
    def test_interior_minimum_certified(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4)
        res = bisect_level(abs_minus_one(), np.array([0.6]), cfg)
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert -1.0 - 1e-4 <= res.best_value <= -1.0 + 1e-4

    def test_boundary_case(self):
        # |x| from x0 = 5 with R = 1: the lifted ball around (5, 5) only
        # reaches y = 5 - 1/sqrt(2) on the epigraph.
        cfg = MetastepConfig(radius=1.0, level_tolerance=1e-4)
        res = bisect_level(abs_fn(), np.array([5.0]), cfg)
        assert res.status is SolveStatus.BOUNDARY_REACHED
        assert res.best_value == pytest.approx(5.0 - 1.0 / math.sqrt(2.0), abs=1e-3)

    def test_bracket_invariant(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-5)
        res = bisect_level(abs_minus_one(), np.array([0.6]), cfg)
        lo, hi = res.alpha_bracket
        assert lo <= res.best_value <= hi + cfg.level_tolerance
        assert hi - lo <= cfg.level_tolerance

    def test_query_budget(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        res = bisect_level(abs_minus_one(), np.array([0.6]), cfg)
        assert res.level_queries <= cfg.query_budget()

    def test_iteration_budget_per_query(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        res = bisect_level(abs_minus_one(), np.array([0.6]), cfg)
        budget = cfg.iteration_budget(2)
        assert res.query_iterations
        assert max(res.query_iterations) <= budget + 5

    def test_bracket_endpoints_consistent(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4)
        f = abs_minus_one()
        res = bisect_level(f, np.array([0.6]), cfg)
        lo, hi = res.alpha_bracket
        probe = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        high_check = level_set_feasible(f, np.array([0.6]), probe, hi + 1e-3)
        assert high_check.verdict is LevelVerdict.FEASIBLE_WITNESS
        low_check = level_set_feasible(f, np.array([0.6]), probe, lo - 1e-3)
        assert low_check.verdict in (
            LevelVerdict.INFEASIBLE,
            LevelVerdict.EPSILON_FEASIBLE,
        )

    def test_early_stop_value(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6, early_stop_value=-0.5)
        res = bisect_level(abs_minus_one(), np.array([0.6]), cfg)
        assert res.early_stopped
        assert res.best_value <= -0.5
        assert res.status is SolveStatus.BUDGET_EXHAUSTED

    def test_budget_exhaustion_is_not_a_proof(self):
        # max(|x1 - 1/2|, |x2 - 1/2|) has minimum 0; a one-iteration budget
        # proves nothing, so the bracket must not rise and nothing is certified.
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        f = MaxAffineFunction(rows, np.array([-0.5, 0.5, -0.5, 0.5]))
        cfg = MetastepConfig(radius=2.0, max_ellipsoid_iters=1)
        res = bisect_level(f, np.zeros(2), cfg)
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.alpha_bracket[0] == 0.5 - 2.0
        assert res.level_queries == 1
        assert res.best_value == 0.5
        np.testing.assert_array_equal(res.best_point, np.zeros(2))
        assert run_metasteps(f, np.zeros(2), cfg).status is SolveStatus.BUDGET_EXHAUSTED

    def test_closed_bracket_without_witness_is_level_set_empty(self):
        # x >= 5 lies outside the ball around x0 = 0: every level is empty.
        f = QuadraticForm(np.array([[1.0]]))
        extra = LinearConstraintSet(np.array([[-1.0]]), np.array([5.0]))
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4)
        res = bisect_level(f, np.zeros(1), cfg, extra)
        assert res.status is SolveStatus.LEVEL_SET_EMPTY
        assert res.best_point is None
        lo, hi = res.alpha_bracket
        assert hi - lo <= cfg.level_tolerance
        assert run_metasteps(f, np.zeros(1), cfg, extra).status is SolveStatus.LEVEL_SET_EMPTY

    def test_query_cap_without_witness_is_budget_exhausted(self):
        class ThreeQueries(MetastepConfig):
            def query_budget(self):
                return 3

        f = QuadraticForm(np.array([[1.0]]))
        extra = LinearConstraintSet(np.array([[-1.0]]), np.array([5.0]))
        cfg = ThreeQueries(radius=2.0, level_tolerance=1e-4)
        res = bisect_level(f, np.zeros(1), cfg, extra)
        assert res.level_queries == 3
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        lo, hi = res.alpha_bracket
        assert hi - lo > cfg.level_tolerance

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

    @pytest.mark.parametrize("mode", list(CutMode))
    def test_all_cut_modes_reach_minimum(self, mode):
        cfg = MetastepConfig(
            radius=3.0, level_tolerance=1e-5, cut_mode=mode, max_metasteps=8
        )
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
        for mode in CutMode:
            cfg = MetastepConfig(radius=3.0, level_tolerance=1e-5, cut_mode=mode,
                                 max_metasteps=8)
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
        assert kinds == {"level", "epigraph", "objective", "ball", "constraint"}


def planted_minimum(rng):
    """Criterion 06's construction on R^2: three pieces whose gradients
    positively span the plane, plus two pieces lying below them."""
    minimizer = rng.uniform(-2, 2, 2)
    true_min = float(rng.uniform(-3, 1))
    base = rng.uniform(0, 2 * math.pi)
    rows, offsets = [], []
    for k in range(3):
        angle = base + k * (2 * math.pi / 3) + rng.uniform(-0.4, 0.4)
        g = rng.uniform(0.5, 2.0) * np.array([math.cos(angle), math.sin(angle)])
        rows.append(g)
        offsets.append(true_min - float(g @ minimizer))
    for _ in range(2):
        g = rng.uniform(-2, 2, 2)
        rows.append(g)
        offsets.append(true_min - float(g @ minimizer) - rng.uniform(0.3, 2.0))
    return MaxAffineFunction(np.array(rows), np.array(offsets)), minimizer


def level_set_samples(state, alpha, per_axis=81, lifts=5):
    """Grid points (x, y) of S(alpha): inside the lifted ball, on or above
    the graph of f, at most alpha, and within the side constraints."""
    radius = state.cfg.radius
    axes = [np.linspace(c - radius, c + radius, per_axis) for c in state.x0]
    xs = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, len(axes))
    fx = state.f.eval_many(xs)
    keep = fx <= alpha
    if state.extra is not None:
        keep &= np.array([state.extra_ok(x) for x in xs])
    xs, fx = xs[keep], fx[keep]
    points = []
    for t in np.linspace(0.0, 1.0, lifts):
        lifted = np.column_stack([xs, fx + t * (alpha - fx)])
        inside = np.linalg.norm(lifted - state.lifted_start, axis=1) <= radius
        points.append(lifted[inside])
    return np.vstack(points)


class TestWarmStart:
    @pytest.fixture
    def queries(self, monkeypatch):
        """Record every level query's state, level and starting ellipsoid."""
        log = []
        original = solver._run_level_query

        def recording(state, alpha):
            log.append((state, alpha, state.warm))
            return original(state, alpha)

        monkeypatch.setattr(solver, "_run_level_query", recording)
        return log

    def check(self, log):
        seen = set()
        shrunk = checked = 0
        for state, alpha, start in log:
            if id(state) not in seen:
                # The first query of every metastep starts from the full ball.
                seen.add(id(state))
                assert start is None
                continue
            if start is None:
                continue
            shrunk += start.log_volume_ratio < 0.0
            samples = level_set_samples(state, alpha)
            assert start.contains_many(samples).all()
            checked += samples.shape[0]
        # Levels near the minimum have level sets too small for the grid;
        # the higher ones must still have been sampled.
        assert shrunk >= 1 and checked >= 100
        return len(seen)

    @pytest.mark.parametrize("mode", list(CutMode))
    def test_minima_start_inside_level_set(self, queries, mode):
        rng = np.random.default_rng(6)
        for _ in range(3):
            f, minimizer = planted_minimum(rng)
            cfg = MetastepConfig(
                radius=2.0, level_tolerance=2e-5, cut_mode=mode, max_metasteps=16
            )
            for offset in (np.array([0.3, -0.4]), np.array([2.5, 2.5])):
                res = run_metasteps(f, minimizer + offset, cfg)
                assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        metasteps = self.check(queries)
        # The far starts recentre, so several metasteps began cold.
        assert metasteps > 6

    def test_constrained_quadratic_start_inside_level_set(self, queries):
        # min x^T Q x subject to x1 + x2 >= 1: 0.875 at (1/4, 3/4)
        f = QuadraticForm(np.array([[2.0, 0.5], [0.5, 1.0]]))
        extra = LinearConstraintSet(np.array([[-1.0, -1.0]]), np.array([1.0]))
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-5, max_metasteps=8)
        for x0 in ([1.5, 1.0], [-1.0, 2.0]):
            res = run_metasteps(f, np.array(x0), cfg, extra=extra)
            assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
            assert float(res.best_point.sum()) >= 1.0 - 1e-8
            assert res.best_value == pytest.approx(0.875, abs=1e-4)
        self.check(queries)

    def test_single_query_starts_cold(self, queries):
        out = level_set_feasible(abs_minus_one(), np.array([0.6]),
                                 MetastepConfig(radius=2.0), -0.8)
        assert out.verdict is LevelVerdict.FEASIBLE_WITNESS
        assert [start for _, _, start in queries] == [None]
