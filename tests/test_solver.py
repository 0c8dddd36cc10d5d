import math

import numpy as np
import pytest

from epicut import (
    ConvexOracle,
    MaxAffineFunction,
    MetastepConfig,
    NonFiniteValue,
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

    def test_every_radius_reached_has_a_normal_square(self):
        # R g^k for k < max_metasteps: R^2 at least the ball's pivot floor
        # 1e-300, (R g^(M-1))^2 at most the largest float.
        for cfg in (MetastepConfig(radius=1e-140, level_tolerance=1e-150),
                    MetastepConfig(radius=1e152, radius_growth=100.0, max_metasteps=2),
                    MetastepConfig(radius=1e150, radius_growth=math.inf, max_metasteps=1)):
            cfg.check_radii()
        for cfg in (MetastepConfig(radius=1e-160, level_tolerance=1e-170),
                    MetastepConfig(radius=1e153, radius_growth=100.0, max_metasteps=2),
                    MetastepConfig(radius=1e160),
                    # 10.0 ** 399 raises OverflowError; log space does not.
                    MetastepConfig(radius=1.0, radius_growth=10.0, max_metasteps=400)):
            with pytest.raises(ValueError, match="radius_growth"):
                cfg.check_radii()
            with pytest.raises(ValueError, match="radius_growth"):
                run_metasteps(abs_fn(), np.zeros(1), cfg)

    def test_a_lone_metastep_checks_its_radius(self):
        # f(x) = x is unbounded below.  At R = 1e155 R^2 overflows, and the
        # ball cut's infinite slack would read as an empty intersection.
        f = MaxAffineFunction([[1.0]], [0.0])
        for cfg in (MetastepConfig(radius=1e155),
                    MetastepConfig(radius=1e-160, level_tolerance=1e-170)):
            with pytest.raises(ValueError, match="square"):
                bisect_level(f, [0.0], cfg)
        res = bisect_level(f, [0.0], MetastepConfig(radius=1e152))
        assert res.status is SolveStatus.BOUNDARY_REACHED

    def test_budget_formulas(self):
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        d = 2
        expected = math.ceil(2 * (d + 1) * (d + 2) * math.log(2.0 / 1e-6))
        assert cfg.iteration_budget(d) == expected


class TestLevelSetFeasible:
    """A run's bracket read as level-set verdicts on the ball: the incumbent
    point witnesses that {f <= U} meets the ball, and no point of the ball
    lies below lb."""

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

    def test_zero_subgradient_closes_the_bracket(self):
        # A constant function: the first center is a global minimizer.
        f = MaxAffineFunction(np.zeros((2, 3)), np.array([-2.0, 0.5]))
        res = bisect_level(f, np.ones(3), MetastepConfig(radius=1.0))
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert res.alpha_bracket == (0.5, 0.5)
        assert res.iterations == 1

    @pytest.mark.parametrize("rows, offsets, x0, radius", [
        # f(x0) = inf: no incumbent to bracket.
        ([[1e300]], [0.0], 1e10, 1.0),
        # f(0) = 0, then a center where 1e307 x overflows; read as a cut
        # with infinite slack it closed the bracket at 0, but f(0.9999)
        # is about -0.9999.
        ([[1e307], [-1.0]], [-1e307, 0.0], 0.0, 1000.0),
    ])
    def test_non_finite_value_raises(self, rows, offsets, x0, radius):
        f = MaxAffineFunction(np.array(rows), np.array(offsets))
        with pytest.raises(NonFiniteValue):
            run_metasteps(f, np.array([x0]), MetastepConfig(radius=radius))

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
        yield box, np.array([0.9, -0.7]), cfg
        yield box, np.array([6.0, 5.0]), cfg

    def test_same_result_with_and_without_trace(self, monkeypatch):
        updates = []
        kernel = solver.cut_in_place

        def counting(e, normal, slack):
            out = kernel(e, normal, slack)
            updates.append(out[0])
            return out

        monkeypatch.setattr(solver, "cut_in_place", counting)
        kinds = set()
        for f, x0, cfg in self.runs():
            plain = run_metasteps(f, x0, cfg)
            del updates[:]
            traced = run_metasteps(f, x0, cfg, trace=True)
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
        assert kinds == {"objective", "ball"}


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
        # A hook takes the model step's place, so the plain run goes
        # through an oracle with the same values and no rows to model.
        f, x0 = self.lifted_box(offset), np.array([0.9, -0.7])
        plain = bisect_level(RowlessOracle(f), x0, self.CFG, trace=True)
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
        res = bisect_level(self.lifted_box(offset), np.array([2.5, 1.0]), self.CFG,
                           hook=lambda point: calls.append(point) or True)
        assert calls == []
        assert res.alpha_bracket[0] <= 0.0
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED

    def test_accepting_hook_ends_the_run_with_a_proven_bracket(self):
        calls = []

        def accept(point):
            calls.append(point)
            return True

        res = bisect_level(self.lifted_box(1.0), np.array([0.9, -0.7]), self.CFG,
                           hook=accept)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], res.best_point)
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.level_queries == 1
        assert res.iterations % 12 == 0
        lower, upper = res.alpha_bracket
        assert 0.0 < lower <= 1.0 <= upper == res.best_value


class RowlessOracle(ConvexOracle):
    """f's values and subgradients without f's rows: a run on it has no
    model step."""

    def __init__(self, f):
        self.f = f

    @property
    def dim(self):
        return self.f.dim

    def eval(self, x):
        return self.f.eval(x)

    def subgradient(self, x):
        return self.f.subgradient(x)

    def value_and_subgradient(self, x):
        return self.f.value_and_subgradient(x)


class CastValueOracle(RowlessOracle):
    """RowlessOracle whose values come back through ``cast``."""

    def __init__(self, f, cast):
        super().__init__(f)
        self.cast = cast

    def value_and_subgradient(self, x):
        value, g = self.f.value_and_subgradient(x)
        return self.cast(value), g


@pytest.mark.parametrize("cast", [np.float32, np.array], ids=["float32", "0-d-array"])
def test_generic_oracle_values_read_as_floats(cast):
    # A numpy scalar or 0-d array value runs as its Python float would:
    # the same bracket and iterations, and a float best value.
    f, _, _ = planted_minimum(np.random.default_rng(5), 2)
    cfg = MetastepConfig(radius=5.0, level_tolerance=1e-6, max_metasteps=3)
    odd = run_metasteps(CastValueOracle(f, cast), np.zeros(2), cfg)
    twin = run_metasteps(CastValueOracle(f, lambda v: float(cast(v))), np.zeros(2), cfg)
    assert odd.alpha_bracket == twin.alpha_bracket
    assert odd.query_iterations == twin.query_iterations
    np.testing.assert_array_equal(odd.best_point, twin.best_point)
    assert type(odd.best_value) is float
    assert all(type(bound) is float for bound in odd.alpha_bracket)


def planted_minimum(rng, n, active=0, close=0):
    """Criterion 06's construction on R^n: n+1 pieces active at the
    minimizer whose gradients positively span R^n (scaled vertices of a
    rotated regular simplex), plus two pieces lying below them.
    ``active`` more random pieces are active at the minimizer too, and
    ``close`` more lie 1e-6 below it there."""
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
    for below in [0.0] * active + [1e-6] * close:
        g = rng.uniform(-2, 2, n)
        rows.append(g)
        offsets.append(true_min - float(g @ minimizer) - below)
    return MaxAffineFunction(np.array(rows), np.array(offsets)), minimizer, true_min


def unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


@pytest.fixture
def metasteps(monkeypatch):
    """Record every metastep's start, config and result."""
    log = []
    original = solver.bisect_level

    def recording(f, x0, cfg, **kwargs):
        res = original(f, x0, cfg, **kwargs)
        log.append((f, np.array(x0, dtype=float), cfg, res))
        return res

    monkeypatch.setattr(solver, "bisect_level", recording)
    return log


class TestBracketSoundness:
    """alpha_bracket = (lb, U): lb is proven below the minimum over the
    ball, U is the value of the reported point."""

    @staticmethod
    def check_every_metastep(log):
        for f, x0, cfg, res in log:
            lo, hi = res.alpha_bracket
            assert lo <= hi == res.best_value == f.eval(res.best_point)
            assert np.linalg.norm(res.best_point - x0) <= cfg.radius

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

    @pytest.mark.parametrize("n", [2, 8])
    def test_early_stop_keeps_a_valid_lower_bound(self, n):
        # Stopped after a few iterations, the run proves nothing about the
        # incumbent but its lb still lies under the minimum: the minimizer
        # is within 1 of x0, inside the ball.
        # 4 dim iterations end the run before its first model step, at
        # 4 (dim + 1).
        class FewIterations(MetastepConfig):
            def iteration_budget(self, dim):
                return 4 * dim

        rng = np.random.default_rng(8)
        cfg = FewIterations(radius=2.0, level_tolerance=2e-5)
        for _ in range(5):
            f, minimizer, true_min = planted_minimum(rng, n)
            x0 = minimizer + rng.uniform(0.1, 1.0) * 0.99 * unit(rng, n)
            res = bisect_level(f, x0, cfg)
            assert res.status is SolveStatus.BUDGET_EXHAUSTED
            assert res.iterations == 4 * n
            lo, hi = res.alpha_bracket
            assert -math.inf < lo <= true_min <= res.best_value == hi
            assert hi - lo > cfg.level_tolerance


class TestModelStep:
    """Without a hook, a max-affine run tries its model every 4(d+1)
    iterations: a ball bound from simplex weights on the rows nearest
    the max, and a probe of the vertex where those rows are equal."""

    @pytest.mark.parametrize("eps", [2e-5, 1e-7])
    @pytest.mark.parametrize("active, close", [(0, 0), (0, 2), (1, 0), (1, 1)])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_planted_family_is_certified(self, metasteps, n, active, close, eps):
        # active = 1: n + 2 rows are active at the minimizer; close: rows
        # 1e-6 below the minimum there, which the model may take as active.
        rng = np.random.default_rng([n, active, close])
        cfg = MetastepConfig(radius=2.0, level_tolerance=eps, max_metasteps=16)
        for _ in range(2):
            f, minimizer, true_min = planted_minimum(rng, n, active, close)
            near = minimizer + rng.uniform(0.1, 1.0) * 0.99 * unit(rng, n)
            far = minimizer + rng.uniform(2.5, 6.0) * unit(rng, n)
            for x0 in (near, far):
                res = run_metasteps(f, x0, cfg)
                assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
                lo, hi = res.alpha_bracket
                assert lo <= true_min <= res.best_value == hi <= lo + eps
        TestBracketSoundness.check_every_metastep(metasteps)

    # Iterations of each near start of test_planted_family_is_certified,
    # (active, close) outer and eps inner: 1 or 2 model tries each.
    NEAR_ITERATIONS = {
        2: [12, 12, 12, 12, 12, 12, 24, 24, 12, 12, 12, 12, 12, 12, 24, 24],
        4: [20, 20, 20, 20, 20, 20, 40, 20, 20, 20, 20, 20, 20, 20, 40, 40],
        8: [36, 36, 36, 36, 36, 36, 36, 72, 36, 36, 36, 36, 36, 36, 36, 72],
    }

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_interior_family_keeps_its_iterations(self, n):
        iterations = []
        for active, close in [(0, 0), (0, 2), (1, 0), (1, 1)]:
            for eps in [2e-5, 1e-7]:
                rng = np.random.default_rng([n, active, close])
                cfg = MetastepConfig(radius=2.0, level_tolerance=eps, max_metasteps=16)
                for _ in range(2):
                    f, minimizer, _ = planted_minimum(rng, n, active, close)
                    near = minimizer + rng.uniform(0.1, 1.0) * 0.99 * unit(rng, n)
                    rng.uniform(2.5, 6.0) * unit(rng, n)  # the far start, not run here
                    iterations.append(run_metasteps(f, near, cfg).iterations)
        assert iterations == self.NEAR_ITERATIONS[n]

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_no_try_after_a_vertex_outside_the_ball(self, monkeypatch, n):
        # Far starts walk over boundary metasteps before the one that
        # holds the minimizer.  Within each metastep, a try whose vertex
        # lies outside the ball (or that finds no bound) is the last one.
        tries = []
        model_step, metastep = solver._model_step, solver.bisect_level

        def counting(f, point, x0, radius):
            bound, vertex = model_step(f, point, x0, radius)
            tries[-1].append(vertex is None or bool(np.linalg.norm(vertex - x0) > radius))
            return bound, vertex

        def opening(*args, **kwargs):
            tries.append([])
            return metastep(*args, **kwargs)

        monkeypatch.setattr(solver, "_model_step", counting)
        monkeypatch.setattr(solver, "bisect_level", opening)
        rng = np.random.default_rng(20 + n)
        cfg = MetastepConfig(radius=2.0, level_tolerance=2e-5)
        for _ in range(3):
            f, minimizer, true_min = planted_minimum(rng, n)
            del tries[:]
            res = run_metasteps(f, minimizer + 5.0 * unit(rng, n), cfg)
            assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
            assert res.alpha_bracket[0] <= true_min <= res.best_value
            assert any(True in step for step in tries)
            assert not any(True in step[:-1] for step in tries)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_first_model_step_keeps_a_valid_lower_bound(self, n):
        # The run ends right after its first model step, at 4 (n + 1)
        # iterations; the model only raises lb, and never above the minimum.
        class FirstTry(MetastepConfig):
            def iteration_budget(self, dim):
                return 4 * (dim + 1)

        rng = np.random.default_rng(10 + n)
        cfg = FirstTry(radius=2.0, level_tolerance=1e-9)
        raised = 0
        for _ in range(6):
            f, minimizer, true_min = planted_minimum(rng, n, active=1, close=1)
            x0 = minimizer + rng.uniform(0.1, 1.0) * 0.99 * unit(rng, n)
            res = bisect_level(f, x0, cfg)
            plain = bisect_level(RowlessOracle(f), x0, cfg)
            assert plain.iterations == 4 * (n + 1) >= res.iterations
            lo, hi = res.alpha_bracket
            assert plain.alpha_bracket[0] <= lo <= true_min <= hi
            raised += lo > plain.alpha_bracket[0]
        assert raised > 0

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_tries_back_off_on_boundary_metasteps(self, monkeypatch, n):
        # The minimum lies outside the ball, so no try halves the gap: the
        # waits double, and the tries come after (2^j - 1) 4 (n + 1)
        # iterations, j = 1, 2, ...
        tries = []
        original = solver._model_step

        def counting(*args):
            tries.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "_model_step", counting)
        rng = np.random.default_rng(3)
        cfg = MetastepConfig(radius=2.0, level_tolerance=2e-5)
        for _ in range(3):
            f, minimizer, _ = planted_minimum(rng, n)
            del tries[:]
            res = bisect_level(f, minimizer + 5.0 * unit(rng, n), cfg)
            assert res.status is SolveStatus.BOUNDARY_REACHED
            assert 1 <= len(tries) <= math.log2(res.iterations / (4 * (n + 1)) + 1)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_model_step_does_not_depend_on_the_scale(self, scale):
        # The kernel scales its rows itself, and the norms of A^T L do
        # not overflow: f and scale * f give the same weights and vertex.
        rows = np.array([[1.0, 0.3], [-2.0, 0.5], [0.2, -1.0]])
        offsets = np.array([0.1, 0.2, 0.3])
        x0 = np.array([0.3, 0.2])
        bound, vertex = solver._model_step(MaxAffineFunction(rows, offsets), x0, x0, 1.0)
        scaled = MaxAffineFunction(rows * scale, offsets * scale)
        scaled_bound, scaled_vertex = solver._model_step(scaled, x0, x0, 1.0)
        assert scaled_bound / scale == pytest.approx(bound, rel=1e-12)
        np.testing.assert_allclose(scaled_vertex, vertex, rtol=1e-12)

    @pytest.mark.parametrize("radius", [1e20, 1e150])
    def test_huge_radius_bracket_holds_the_minimum(self, radius):
        # |x - 5| - 1 from 0: the cut bound loses the minimizer to
        # cancellation and reaches 0; the vertex probe then finds f(5) = -1
        # below it, and lb falls back to the model's ball bound.
        f = MaxAffineFunction(np.array([[1.0], [-1.0]]), np.array([-6.0, 4.0]))
        res = run_metasteps(f, np.zeros(1), MetastepConfig(radius=radius))
        lo, hi = res.alpha_bracket
        assert -math.inf < lo <= -1.0 <= hi == res.best_value == f.eval(res.best_point)

    def test_value_below_lb_without_a_model_ends_with_no_bound(self, monkeypatch):
        # A kernel that halves every width overstates the cut bound, and a
        # later value falls below it.  With no model to fall back to, the
        # run ends at once with lb = -inf, not with lb > U.
        kernel = solver.cut_in_place

        def overstated(e, normal, slack):
            outcome, alpha, width = kernel(e, normal, slack)
            return outcome, alpha, width / 2.0

        monkeypatch.setattr(solver, "cut_in_place", overstated)
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-9)
        res = bisect_level(RowlessOracle(abs_minus_one()), np.array([0.6]), cfg)
        assert res.alpha_bracket[0] == -math.inf < res.best_value
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.iterations < cfg.iteration_budget(1)

    def test_later_metastep_error_keeps_the_proven_ones(self):
        # f = 9e307 x: the first metastep proves BoundaryReached at -1, the
        # second one's ball [-2, 0] holds values that overflow.
        f = MaxAffineFunction(np.array([[9e307]]), np.zeros(1))
        res = run_metasteps(f, np.zeros(1), MetastepConfig(radius=1.0))
        assert res.status is SolveStatus.BOUNDARY_REACHED
        assert res.best_value == -9e307
        np.testing.assert_array_equal(res.best_point, [-1.0])
        assert res.level_queries == 1 == len(res.query_iterations)


class TestOutsideWitness:
    """A metastep that is not its run's last ends as soon as its lb
    passes f at a model vertex outside its ball: the ball then holds no
    global minimizer, and the next ball is centred at that vertex."""

    # Iterations of each far start of test_planted_family_is_certified,
    # (active, close) outer and eps inner, as NEAR_ITERATIONS.  Closing
    # every boundary metastep's bracket took 1 845, 6 706 and 35 099 in all.
    FAR_ITERATIONS = {
        2: [24, 24, 24, 24, 81, 45, 102, 45, 24, 24, 24, 24, 36, 127, 36, 172],
        4: [40, 40, 40, 40, 40, 40, 180, 60, 80, 308, 80, 432, 40, 253, 60, 375],
        8: [92, 72, 92, 72, 1960, 166, 1642, 202, 1948, 726, 1356, 1099, 2022, 72, 3006,
            180],
    }

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_far_family_ends_metasteps_at_witnesses(self, metasteps, n):
        iterations, witnessed = [], 0
        for active, close in [(0, 0), (0, 2), (1, 0), (1, 1)]:
            for eps in [2e-5, 1e-7]:
                rng = np.random.default_rng([n, active, close])
                cfg = MetastepConfig(radius=2.0, level_tolerance=eps, max_metasteps=16)
                for _ in range(2):
                    f, minimizer, true_min = planted_minimum(rng, n, active, close)
                    rng.uniform(0.1, 1.0) * 0.99 * unit(rng, n)  # the near start, not run here
                    far = minimizer + rng.uniform(2.5, 6.0) * unit(rng, n)
                    del metasteps[:]
                    res = run_metasteps(f, far, cfg)
                    assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
                    lo, hi = res.alpha_bracket
                    assert lo <= true_min <= res.best_value == hi <= lo + eps
                    for _, x0, step_cfg, step in metasteps:
                        if step.outside is None:
                            continue
                        witnessed += 1
                        lb, ub = step.alpha_bracket
                        assert step.status is SolveStatus.BOUNDARY_REACHED
                        assert np.linalg.norm(step.outside - x0) > step_cfg.radius
                        assert f.eval(step.outside) < lb <= ub
                        assert np.linalg.norm(minimizer - x0) > step_cfg.radius
                    iterations.append(res.iterations)
        assert witnessed > 0
        assert iterations == self.FAR_ITERATIONS[n]

    def test_boundary_walk_certifies_the_minimum(self):
        # Random rows from 20 * 1 with R = 2: closing every boundary
        # metastep's bracket, the run ended BoundaryReached at 7.194 after
        # its 16 metasteps.  The minimum, 2.3233482675..., lies at about
        # 33 from the start.
        rng = np.random.default_rng(0)
        f = MaxAffineFunction(rng.normal(size=(200, 3)), rng.normal(size=200))
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        res = run_metasteps(f, np.full(3, 20.0), cfg)
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        lo, hi = res.alpha_bracket
        assert hi - lo <= cfg.level_tolerance
        assert lo - cfg.level_tolerance <= 2.3233482675255 <= hi + cfg.level_tolerance
        # The same minimum from 0 in one ball of radius 50.
        whole = run_metasteps(f, np.zeros(3), MetastepConfig(radius=50.0))
        assert whole.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert lo <= whole.alpha_bracket[1] and whole.alpha_bracket[0] <= hi

    @staticmethod
    def flat_valley():
        # Minimum 0 at (2.05, 0), just outside B(0, 2), where f rises
        # only 1e-3 per unit towards the ball.
        rows = np.array([[-1e-3, 10.0], [-1e-3, -10.0], [10.0, 0.0]])
        return MaxAffineFunction(rows, -rows @ np.array([2.05, 0.0]))

    def test_flat_valley_is_not_certified_inside_the_ball(self):
        # Closing the bracket on B(0, 2), the run read its incumbent at
        # depth 5e-5 (50 eps) as interior and certified 5.0e-5.
        f = self.flat_valley()
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        res = run_metasteps(f, np.zeros(2), cfg)
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        lo, hi = res.alpha_bracket
        assert lo <= 0.0 <= hi <= lo + cfg.level_tolerance
        np.testing.assert_allclose(res.best_point, [2.05, 0.0], atol=1e-9)

    def test_closed_bracket_asks_the_model_again(self, monkeypatch):
        # The first try's vertex lies far outside, with f above every lb
        # of the ball, and ends the tries; the ellipsoid then closes the
        # bracket 5e-5 inside the sphere.  A last try at that incumbent
        # finds the minimizer outside, below lb.
        f = self.flat_valley()
        model_step, calls = solver._model_step, []

        def astray(*args):
            bound, vertex = model_step(*args)
            calls.append(vertex)
            return (bound, np.array([10.0, 10.0])) if len(calls) == 1 else (bound, vertex)

        monkeypatch.setattr(solver, "_model_step", astray)
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        res = bisect_level(f, np.zeros(2), cfg, _witness=True)
        assert len(calls) == 2
        assert res.status is SolveStatus.BOUNDARY_REACHED
        lo, hi = res.alpha_bracket
        assert hi - lo <= cfg.level_tolerance
        assert res.depth > 10 * cfg.level_tolerance
        np.testing.assert_allclose(res.outside, [2.05, 0.0], atol=1e-9)
        assert f.eval(res.outside) < lo

    def test_no_witness_in_a_direct_call_or_the_last_metastep(self, metasteps):
        # A direct call and a run's last metastep close their brackets, so
        # no witness ends them.
        rng = np.random.default_rng(0)
        f = MaxAffineFunction(rng.normal(size=(200, 3)), rng.normal(size=200))
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6, max_metasteps=2)
        x0 = np.full(3, 20.0)
        alone = bisect_level(f, x0, cfg)
        assert alone.outside is None
        assert alone.status is SolveStatus.BOUNDARY_REACHED
        res = run_metasteps(f, x0, cfg)
        (_, _, _, first), (_, centre, _, last) = metasteps
        assert first.outside is not None
        np.testing.assert_array_equal(centre, first.outside)
        assert last.outside is None and res.outside is None
        assert res.status is SolveStatus.BOUNDARY_REACHED
        lo, hi = res.alpha_bracket
        assert hi - lo <= cfg.level_tolerance
        # The second ball is centred at the witness, not at the first
        # incumbent, and reaches lower.
        assert hi < first.best_value
