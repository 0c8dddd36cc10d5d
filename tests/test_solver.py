import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from epicut import (
    ConvexOracle,
    LinearSystem,
    MaxAffineFunction,
    MetastepConfig,
    NonFiniteValue,
    SolveStatus,
    bisect_level,
    run_metasteps,
    solver,
    vertex_enumerate_feasible,
)
from epicut import nnls as nnls_module
from epicut.nnls import min_norm_weights


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

    @pytest.mark.parametrize("field, value", [
        ("radius_growth", math.nan),
        ("max_metasteps", math.nan),
        ("max_metasteps", 2.5),
        ("max_metasteps", 2.0),
        ("max_metasteps", "3"),
        ("stop_when_high_below", math.nan),
    ])
    def test_nan_and_non_integer_rejected_up_front(self, field, value):
        # Each once ran: NaN growth silently for one metastep and through
        # check_radii's message about radii for more, a fractional
        # metastep count to a TypeError from range, and a NaN stop value
        # as if it were -inf (no comparison with NaN holds).
        kwargs = {"max_metasteps": 3, field: value}
        with pytest.raises(ValueError, match=field):
            MetastepConfig(radius=1.0, **kwargs)

    def test_integer_metastep_counts_accepted(self):
        # numpy's integers count, as do infinite growth and a lone metastep.
        assert MetastepConfig(radius=1.0, max_metasteps=np.int64(3)).max_metasteps == 3
        MetastepConfig(radius=1.0, max_metasteps=1, radius_growth=math.inf)
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4, max_metasteps=np.int32(2),
                             radius_growth=2.0)
        assert run_metasteps(abs_minus_one(), np.array([0.5]), cfg).level_queries >= 1

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
        # Without f's rows, so that the stop value, not a model try's
        # vertex at the minimizer, ends the metastep.
        f = RowlessOracle(abs_minus_one())
        x0 = np.array([0.6])
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6, stop_when_high_below=-0.8)
        res = bisect_level(f, x0, cfg)
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert f.eval(res.best_point) == res.best_value < -0.8
        assert abs(float(res.best_point[0] - x0[0])) <= cfg.radius

    def test_bottom_of_bracket_infeasible(self):
        # Stopped early, lb is far under the incumbent, yet f stays above
        # it on the whole ball, not only at the minimizer.  The cut bound
        # alone: without f's rows no model try closes the bracket first.
        class FewIterations(MetastepConfig):
            def iteration_budget(self, dim):
                return 3 * dim

        rng = np.random.default_rng(5)
        cfg = FewIterations(radius=2.0, level_tolerance=1e-6)
        for _ in range(5):
            f, minimizer, _ = planted_minimum(rng, 2)
            x0 = minimizer + rng.uniform(0.1, 3.0) * unit(rng, 2)
            res = bisect_level(RowlessOracle(f), x0, cfg)
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
        # Without f's rows: a model try would close the bracket at the
        # minimizer before the stop value ends the metastep.
        f = RowlessOracle(abs_minus_one())
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
        # proves only f(0) - R ||g|| = -1.5, less the rounding allowance
        # 4 eps_mach |f(0)|, and nothing is certified.
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        f = MaxAffineFunction(rows, np.array([-0.5, 0.5, -0.5, 0.5]))

        class OneIteration(MetastepConfig):
            def iteration_budget(self, lifted_dim):
                return 1

        cfg = OneIteration(radius=2.0)
        res = bisect_level(f, np.zeros(2), cfg)
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.alpha_bracket[0] == 0.5 - 2.0 - 4.0 * solver._ROUNDING * 0.5
        assert res.level_queries == 1
        assert res.best_value == 0.5
        np.testing.assert_array_equal(res.best_point, np.zeros(2))
        assert run_metasteps(f, np.zeros(2), cfg).status is SolveStatus.BUDGET_EXHAUSTED

    def test_zero_subgradient_closes_the_bracket(self):
        # A constant function: the first center is a global minimizer, and
        # lb is f there less the rounding allowance 4 eps_mach |f|.
        f = MaxAffineFunction(np.zeros((2, 3)), np.array([-2.0, 0.5]))
        res = bisect_level(f, np.ones(3), MetastepConfig(radius=1.0))
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert res.alpha_bracket == (0.5 - 4.0 * solver._ROUNDING * 0.5, 0.5)
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

    def test_metastep_raising_keeps_the_completed_ones(self, monkeypatch):
        # 9e307 x over [-1, 1]: the first metastep ends at its first model
        # try, after 2 iterations at -0.5, at the slope vertex just past
        # -1, where f lies below lb (a proven witness).  The ball around
        # that vertex holds -2, where f overflows, so the second metastep
        # raises NonFiniteValue.  The result is the first metastep's, with
        # only its iterations and trace records.
        f = MaxAffineFunction([[9e307]], [0.0])
        cfg = MetastepConfig(radius=1.0)
        first = bisect_level(f, [0.0], cfg, trace=True, _witness=True)
        original, calls = solver.bisect_level, []

        def watched(*args, **kwargs):
            calls.append("raised")
            step = original(*args, **kwargs)
            calls[-1] = "completed"
            return step

        monkeypatch.setattr(solver, "bisect_level", watched)
        res = run_metasteps(f, [0.0], cfg, trace=True)
        assert calls == ["completed", "raised"]
        assert res.status is first.status is SolveStatus.BOUNDARY_REACHED
        assert res.alpha_bracket == first.alpha_bracket == (-9e307, -0.5 * 9e307)
        assert res.best_point.tolist() == first.best_point.tolist() == [-0.5]
        assert res.outside.tolist() == first.outside.tolist()
        assert f.eval(first.outside) < -9e307
        assert res.query_iterations == first.query_iterations == [2]
        assert len(res.query_iterations) == 1
        assert len(res.trace) == len(first.trace) == first.iterations
        assert all(rec.query == 1 for rec in res.trace)
        assert [rec.iteration for rec in res.trace] == [rec.iteration for rec in first.trace]

    def test_deep_cuts_reach_minimum(self):
        cfg = MetastepConfig(radius=3.0, level_tolerance=1e-5, max_metasteps=8)
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        f = MaxAffineFunction(rows, np.full(4, -1.0))
        res = run_metasteps(f, np.array([0.9, -0.7]), cfg)
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert res.best_value == pytest.approx(-1.0, abs=1e-4)

    def test_stops_when_a_recentred_metastep_does_not_improve(self):
        # At x0 = 1e17 the rounding allowance 16 eps_mach (R + |x0|), about
        # 355, exceeds R = 1, so even the centre reads as on the sphere:
        # each metastep ends BoundaryReached at the same point and value.
        # The second one does not improve on the first, which ends the run;
        # without that stop it would spend all 16 metasteps.
        f = MaxAffineFunction([[1.0], [-1.0]], [-1e17, 1e17])
        cfg = MetastepConfig(radius=1.0, level_tolerance=1e-6)
        res = run_metasteps(f, [1e17], cfg)
        assert res.status is SolveStatus.BOUNDARY_REACHED
        assert (res.level_queries, res.iterations) == (2, 42)
        assert res.best_point.tolist() == [1e17]
        assert res.alpha_bracket == (-9.5367431640625e-07, 0.0)

    def test_stop_value_ends_the_run(self):
        # |x| - 1 without its rows (no model step) from x0 = 10 with R = 2:
        # the first metastep closes its bracket on the sphere, near 7, where
        # BoundaryReached would recentre.  A stop value just above that
        # incumbent ends the whole run there.
        f = RowlessOracle(abs_minus_one())
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-4, max_metasteps=12)
        first = bisect_level(f, [10.0], cfg, _witness=True)
        assert first.status is SolveStatus.BOUNDARY_REACHED
        stop = math.nextafter(first.best_value, math.inf)
        res = run_metasteps(f, [10.0], MetastepConfig(
            radius=2.0, level_tolerance=1e-4, max_metasteps=12, stop_when_high_below=stop))
        assert res.status is SolveStatus.BOUNDARY_REACHED
        assert res.level_queries == 1
        assert res.best_value == first.best_value < stop
        # Without the stop value the run slides on to the minimum -1.
        assert run_metasteps(f, [10.0], cfg).best_value == pytest.approx(-1.0, abs=1e-3)

    def test_certified_optimum_above_the_stop_value_recentres(self):
        # max(1 - 3e-7 (x - y), 1 - 1e-3 x) has no minimum, but it falls
        # so slowly that a point within eps of the ball's minimum lies well
        # inside the sphere: a lone metastep, which cannot move, reads
        # GlobalOptimumCertified near 1, a status that is global only down
        # a slope of eps / depth.
        f = MaxAffineFunction([[-3e-7, 3e-7], [-1e-3, 0.0]], [1.0, 1.0])
        cfg = dict(radius=100.0, level_tolerance=1e-8, radius_growth=10.0)
        alone = run_metasteps(f, [0.0, 0.0], MetastepConfig(**cfg, max_metasteps=1))
        assert alone.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert alone.level_queries == 1
        assert alone.alpha_bracket[0] > 0.99
        # With metasteps to spare, the run moves on past each sphere and
        # ends uncertified.
        walk = run_metasteps(f, [0.0, 0.0], MetastepConfig(**cfg))
        assert walk.status is SolveStatus.BUDGET_EXHAUSTED
        assert walk.level_queries == 16
        assert walk.best_value < 0.0
        # A run that looks for a value below 0 goes on from there.
        res = run_metasteps(f, [0.0, 0.0], MetastepConfig(**cfg, stop_when_high_below=0.0))
        assert res.level_queries == 6
        assert res.best_value < 0.0


class TestTraceOnlyObserves:
    """Tracing records the run; it must not change it."""

    @staticmethod
    def runs():
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        box = MaxAffineFunction(rows, np.full(4, -1.0))
        cfg = MetastepConfig(radius=3.0, level_tolerance=1e-5, max_metasteps=8)
        yield box, np.array([0.9, -0.7]), cfg
        yield box, np.array([6.0, 5.0]), cfg
        # Without the rows no model try ends a metastep early, and the
        # walk from the far start makes ball cuts too.
        yield RowlessOracle(box), np.array([6.0, 5.0]), cfg

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


@pytest.fixture
def slope_vertices(monkeypatch, metasteps):
    """Record every slope vertex a metastep forms, with the index its
    metastep gets in ``metasteps``."""
    log = []
    original = solver._past_the_sphere

    def recording(point, slope, x0, radius):
        past = original(point, slope, x0, radius)
        log.append((len(metasteps), past))
        return past

    monkeypatch.setattr(solver, "_past_the_sphere", recording)
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

    @pytest.mark.parametrize("c", [1e15, 1e16, 1e17, 1e20, 1e100])
    def test_cut_bound_allows_for_the_rounding_of_f(self, c):
        # |x - c| from 0 at R = 2: once the width falls below the last bit
        # of f(c), f(c) - width rounded back to f(c), and both a lone
        # metastep and a run certified c with bracket (c, c).  The ball's
        # minimum is c - 2, and f's is 0.
        f = MaxAffineFunction(np.array([[1.0], [-1.0]]), np.array([-c, c]))
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        alone = bisect_level(f, np.zeros(1), cfg)
        assert alone.status is SolveStatus.BUDGET_EXHAUSTED
        assert Fraction(alone.alpha_bracket[0]) <= Fraction(c) - 2
        # The run moves to the vertex c in a ball that holds the first
        # incumbent, of radius about 1.5 c, and certifies 0 deep inside
        # it.  With the radius kept at 2, the depth test's rounding term
        # exceeded R at |x0| = c, and the run ended BoundaryReached there.
        res = run_metasteps(f, np.zeros(1), cfg)
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        assert res.level_queries == 2 and res.config.radius > c
        lo, hi = res.alpha_bracket
        assert lo <= 0.0 == hi

    @pytest.mark.parametrize("n", [2, 8])
    def test_early_stop_keeps_a_valid_lower_bound(self, n):
        # Stopped after a few iterations, the run proves nothing about the
        # incumbent but its lb still lies under the minimum: the minimizer
        # is within 1 of x0, inside the ball.
        # dim iterations end the run before its first model step, at
        # dim + 1.
        class FewIterations(MetastepConfig):
            def iteration_budget(self, dim):
                return dim

        rng = np.random.default_rng(8)
        cfg = FewIterations(radius=2.0, level_tolerance=2e-5)
        for _ in range(5):
            f, minimizer, true_min = planted_minimum(rng, n)
            x0 = minimizer + rng.uniform(0.1, 1.0) * 0.99 * unit(rng, n)
            res = bisect_level(f, x0, cfg)
            assert res.status is SolveStatus.BUDGET_EXHAUSTED
            assert res.iterations == n
            lo, hi = res.alpha_bracket
            assert -math.inf < lo <= true_min <= res.best_value == hi
            assert hi - lo > cfg.level_tolerance


class TestModelStep:
    """A max-affine run tries its model first after d + 1 iterations,
    backing off while the tries do not halve the gap: a ball bound from
    simplex weights on the rows nearest the max, and a probe of the
    vertex where those rows are equal."""

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
    # (active, close) outer and eps inner: most close at the first model
    # try, after d + 1 iterations.  With the first try after 4 (d + 1)
    # and every prefix solved cold they took 240, 380 and 648 in all.
    # The n = 8 start with 576 keeps a prefix solution whose A^T L is 0
    # but whose L.b lies 7.2e-8 below the minimum (a close row in its
    # support) through six tries; its cold prefixes took 18.
    NEAR_ITERATIONS = {
        2: [3, 3, 3, 3, 3, 3, 6, 3, 3, 9, 3, 9, 3, 3, 6, 3],
        4: [5, 5, 5, 5, 5, 5, 10, 15, 5, 5, 5, 5, 5, 10, 5, 10],
        8: [9, 9, 9, 9, 9, 9, 9, 576, 9, 9, 9, 9, 9, 9, 9, 18],
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
        # lies outside the ball (or that finds no bound) is the last one,
        # and so is a try whose slope vertex past the sphere is held.
        tries = []
        model_step, metastep = solver._model_step, solver.bisect_level

        def counting(f, point, x0, radius):
            bound, vertex, slope = model_step(f, point, x0, radius)
            tries[-1].append(vertex is None or bool(np.linalg.norm(vertex - x0) > radius))
            return bound, vertex, slope

        def opening(*args, **kwargs):
            tries.append([])
            step = metastep(*args, **kwargs)
            if step.outside is not None and not tries[-1][-1]:
                # The try's vertex lay inside: its slope vertex ended it.
                tries[-1][-1] = True
            return step

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
        # The run ends right after its first model step, at n + 1
        # iterations; the model only raises lb, and never above the minimum.
        class FirstTry(MetastepConfig):
            def iteration_budget(self, dim):
                return dim + 1

        rng = np.random.default_rng(10 + n)
        cfg = FirstTry(radius=2.0, level_tolerance=1e-9)
        raised = 0
        for _ in range(6):
            f, minimizer, true_min = planted_minimum(rng, n, active=1, close=1)
            x0 = minimizer + rng.uniform(0.1, 1.0) * 0.99 * unit(rng, n)
            res = bisect_level(f, x0, cfg)
            plain = bisect_level(RowlessOracle(f), x0, cfg)
            assert plain.iterations == n + 1 >= res.iterations
            lo, hi = res.alpha_bracket
            assert plain.alpha_bracket[0] <= lo <= true_min <= hi
            raised += lo > plain.alpha_bracket[0]
        assert raised > 0

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_tries_back_off_on_boundary_metasteps(self, monkeypatch, n):
        # The minimum lies outside the ball, so no try halves the gap: the
        # waits double, and the tries come after (2^j - 1) (n + 1)
        # iterations, j = 1, 2, ...  A try whose vertex lies outside is
        # the last, so these stay within even the count that a first try
        # after 4 (n + 1) iterations would allow.
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

    def test_resumed_prefixes_save_solves(self, monkeypatch):
        # 16 model tries on a fixed n = 8 family with one more row active
        # and one close at the minimizer, from points 0.5 to 1e-4 away:
        # each prefix after the first resumes from the last one's
        # solution, and the first from its Gram seed when its whole Gram
        # solve is not positive, so the tries make 93 Gram solves.  Every
        # prefix started from zero made 423.
        solves = []
        solve = nnls_module._solve
        monkeypatch.setattr(nnls_module, "_solve",
                            lambda *args: solves.append(None) or solve(*args))
        rng = np.random.default_rng([8, 39])
        for _ in range(4):
            f, minimizer, _ = planted_minimum(rng, 8, active=1, close=1)
            for distance in (0.5, 0.1, 1e-2, 1e-4):
                point = minimizer + distance * unit(rng, 8)
                solver._model_step(f, point, point, 2.0)
        assert len(solves) == 93 < 423

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_model_step_does_not_depend_on_the_scale(self, scale):
        # The kernel scales its rows itself, and the norms of A^T L do
        # not overflow: f and scale * f give the same weights and vertex.
        rows = np.array([[1.0, 0.3], [-2.0, 0.5], [0.2, -1.0]])
        offsets = np.array([0.1, 0.2, 0.3])
        x0 = np.array([0.3, 0.2])
        bound, vertex, slope = solver._model_step(MaxAffineFunction(rows, offsets), x0, x0, 1.0)
        scaled = MaxAffineFunction(rows * scale, offsets * scale)
        scaled_bound, scaled_vertex, scaled_slope = solver._model_step(scaled, x0, x0, 1.0)
        assert scaled_bound / scale == pytest.approx(bound, rel=1e-12)
        np.testing.assert_allclose(scaled_vertex, vertex, rtol=1e-12)
        # The three rows' hull holds 0, so p = A^T L is 0 at both scales.
        assert slope is None and scaled_slope is None
        # The first two rows' hull does not: p scales with f.
        _, _, slope = solver._model_step(MaxAffineFunction(rows[:2], offsets[:2]), x0, x0, 1.0)
        scaled = MaxAffineFunction(rows[:2] * scale, offsets[:2] * scale)
        _, _, scaled_slope = solver._model_step(scaled, x0, x0, 1.0)
        assert np.linalg.norm(slope) > 0.1
        np.testing.assert_allclose(scaled_slope / scale, slope, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e4, 1e8, 1e12])
    def test_rows_past_the_first_prefix_do_not_scale_it(self, scale):
        # The first prefix is scaled by its own largest entry: a row far
        # below the max, `scale` times larger, changes neither its bound
        # nor its zero p.  Scaled by that row, the first prefix weighed its
        # own rows about 1/scale^2 against the row of ones and lost its
        # zero p.
        rows = np.array([[1.0, 0.3], [-2.0, 0.5], [0.2, -1.0]])
        offsets = np.array([0.1, 0.2, 0.3])
        x0 = np.array([0.3, 0.2])
        bound, _, slope = solver._model_step(MaxAffineFunction(rows, offsets), x0, x0, 1.0)
        far = MaxAffineFunction(np.vstack([rows, [scale, -scale]]), np.append(offsets, -scale))
        far_bound, _, far_slope = solver._model_step(far, x0, x0, 1.0)
        assert far_bound == bound and slope is None and far_slope is None

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
        # f = 9e307 x: the first metastep proves BoundaryReached by a
        # witness just past -1, below its lb, at its first try (after 2
        # iterations at -0.5); the second one's ball around that witness
        # holds values that overflow.
        f = MaxAffineFunction(np.array([[9e307]]), np.zeros(1))
        res = run_metasteps(f, np.zeros(1), MetastepConfig(radius=1.0))
        assert res.status is SolveStatus.BOUNDARY_REACHED
        assert res.alpha_bracket == (-9e307, -0.5 * 9e307) == (-9e307, res.best_value)
        np.testing.assert_array_equal(res.best_point, [-0.5])
        assert res.level_queries == 1 == len(res.query_iterations)


class TestOutsideWitness:
    """A metastep that is not its run's last ends at the first model
    vertex outside its ball where f is finite, or at the first slope
    vertex past its sphere where f is below U.  Once lb > f there, the
    ball holds no global minimizer: a proven witness.  Otherwise the end
    is an unproven move (BudgetExhausted with ``outside`` set).  Either
    way the next ball is centred at the vertex, with radius
    max(R, 1.5 ||vertex - best point||), so that it holds the in-ball
    incumbent."""

    # Iterations of each far start of test_planted_family_is_certified,
    # (active, close) outer and eps inner, as NEAR_ITERATIONS: 384, 255
    # and 999 in all.  With the first model try after 4 (d + 1)
    # iterations and cold prefixes they took 541, 960 and 1 260, with
    # (8, 6), (2, 8) and (14, 10) moves.  Before that, closing every
    # boundary metastep's bracket took 1 845, 6 706 and 35 099; waiting
    # in each until lb passed f at the vertex, 836, 2 108 and 14 707;
    # moving on the model's word alone, without slope vertices, 553,
    # 1 640 and 4 331; with two move rules (the radius kept at a witness
    # or a vertex below U, else a ball around the best point), 541, 920
    # and 1 548.
    FAR_ITERATIONS = {
        2: [6, 70, 6, 92, 9, 9, 54, 9, 15, 6, 15, 6, 12, 9, 57, 9],
        4: [10, 15, 10, 15, 10, 15, 10, 45, 15, 15, 15, 15, 15, 10, 15, 25],
        8: [18, 18, 18, 18, 45, 27, 54, 36, 18, 27, 18, 27, 36, 18, 603, 18],
    }
    # Moves of those far starts: (unproven, grown past R).
    FAR_MOVES = {2: (22, 10), 4: (16, 12), 8: (14, 18)}

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_far_family_ends_metasteps_at_witnesses(self, metasteps, n):
        iterations, unproven, grown = [], 0, 0
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
                    assert res.outside is None
                    lo, hi = res.alpha_bracket
                    assert lo <= true_min <= res.best_value == hi <= lo + eps
                    for (_, x0, step_cfg, step), (_, centre, next_cfg, _) in zip(
                            metasteps, metasteps[1:]):
                        if step.outside is None:
                            continue
                        reach = np.linalg.norm(step.outside - x0)
                        assert reach > step_cfg.radius
                        lb, ub = step.alpha_bracket
                        if step.status is SolveStatus.BOUNDARY_REACHED:
                            assert f.eval(step.outside) < lb <= ub
                            assert np.linalg.norm(minimizer - x0) > step_cfg.radius
                        else:
                            assert step.status is SolveStatus.BUDGET_EXHAUSTED
                            assert lb <= f.eval(step.outside) and ub - lb > eps
                            unproven += 1
                        # Every held vertex centres the next ball, which
                        # holds the in-ball incumbent.
                        np.testing.assert_array_equal(centre, step.outside)
                        gap = np.linalg.norm(step.outside - step.best_point)
                        assert next_cfg.radius == max(step_cfg.radius, 1.5 * gap)
                        grown += next_cfg.radius > step_cfg.radius
                    iterations.append(res.iterations)
        assert (unproven, grown) == self.FAR_MOVES[n]
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

    def test_first_outside_vertex_ends_the_metastep(self, monkeypatch, metasteps):
        # The first try's vertex lies far outside, with f above every lb
        # of the ball.  Waiting for lb to pass f there, the ellipsoid
        # closed the bracket 5e-5 inside the sphere; the metastep now ends
        # at that try, an unproven move, and the next ball is centred at
        # the vertex and holds the first incumbent.
        f = self.flat_valley()
        model_step, calls = solver._model_step, []

        def astray(*args):
            bound, vertex, slope = model_step(*args)
            calls.append(vertex)
            if len(calls) == 1:
                vertex = np.array([10.0, 10.0])
            return bound, vertex, slope

        monkeypatch.setattr(solver, "_model_step", astray)
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        res = run_metasteps(f, np.zeros(2), cfg)
        (_, _, _, first), (_, centre, second_cfg, _) = metasteps[:2]
        assert first.iterations == 3  # the first try, after d + 1
        assert first.status is SolveStatus.BUDGET_EXHAUSTED
        np.testing.assert_array_equal(first.outside, [10.0, 10.0])
        lo, hi = first.alpha_bracket
        assert lo <= f.eval(first.outside) and hi - lo > cfg.level_tolerance
        np.testing.assert_array_equal(centre, first.outside)
        assert second_cfg.radius == 1.5 * np.linalg.norm(first.outside - first.best_point)
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        np.testing.assert_allclose(res.best_point, [2.05, 0.0], atol=1e-9)

    def test_grown_radius_out_of_range_ends_the_run(self, monkeypatch):
        # Every vertex lies at 1e200: the ball that would hold it has a
        # radius whose square overflows, so the run ends with the first
        # metastep's result instead of raising ValueError.
        f = self.flat_valley()
        model_step = solver._model_step

        def distant(*args):
            bound, _, slope = model_step(*args)
            return bound, np.full(2, 1e200), slope

        monkeypatch.setattr(solver, "_model_step", distant)
        res = run_metasteps(f, np.zeros(2), MetastepConfig(radius=2.0, level_tolerance=1e-6))
        assert res.level_queries == 1
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        np.testing.assert_array_equal(res.outside, [1e200, 1e200])

    def test_far_starts_certify_no_value_above_the_minimum(self):
        # Random max-affine functions, some unbounded below, from starts up
        # to about 30 away.  Every certified lb must lie below the minimum
        # that vertex enumeration finds: f <= lb - 1e-9 has no solution.
        # The oracle's tol 1e-12 admits candidates whose tight rows read a
        # rounding residue above 0; at tol 0 it missed the false
        # certificates of seeds 15 and 33.  The run that waited for lb to
        # pass f at each witness certified 23.
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6, max_metasteps=16)
        certified = 0
        for s in range(40):
            rng = np.random.default_rng([21, s])
            m, n = int(rng.integers(5, 13)), int(rng.integers(2, 5))
            rows, offsets = rng.normal(size=(m, n)), rng.normal(size=m)
            x0 = rng.normal(size=n) * (1.0, 10.0, 30.0)[s % 3]
            res = run_metasteps(MaxAffineFunction(rows, offsets), x0, cfg)
            if res.status is not SolveStatus.GLOBAL_OPTIMUM_CERTIFIED:
                continue
            certified += 1
            lower = LinearSystem(rows, offsets - (res.alpha_bracket[0] - 1e-9))
            assert not vertex_enumerate_feasible(lower, tol=1e-12).feasible, s
        assert certified >= 23

    def test_a_move_makes_no_oracle_call_of_its_own(self, monkeypatch):
        # The functions of test_far_starts_certify_no_value_above_the_
        # minimum, whose runs make proven and unproven moves.  Every value
        # a run reads comes from its metasteps: choosing the next ball
        # evaluates f nowhere, not even at the vertex held.
        inside, own_calls, moves = [False], [], Counter()
        evaluate, metastep = MaxAffineFunction.eval, solver.bisect_level

        def counted(self, x):
            if not inside[0]:
                own_calls.append(x)
            return evaluate(self, x)

        def within(*args, **kwargs):
            inside[0] = True
            try:
                step = metastep(*args, **kwargs)
            finally:
                inside[0] = False
            if step.outside is not None:
                moves[step.status] += 1
            return step

        monkeypatch.setattr(MaxAffineFunction, "eval", counted)
        monkeypatch.setattr(solver, "bisect_level", within)
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6, max_metasteps=16)
        for s in range(40):
            rng = np.random.default_rng([21, s])
            m, n = int(rng.integers(5, 13)), int(rng.integers(2, 5))
            f = MaxAffineFunction(rng.normal(size=(m, n)), rng.normal(size=m))
            run_metasteps(f, rng.normal(size=n) * (1.0, 10.0, 30.0)[s % 3], cfg)
        assert moves[SolveStatus.BOUNDARY_REACHED] > 0 < moves[SolveStatus.BUDGET_EXHAUSTED]
        assert own_calls == []

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


class TestSlopeVertex:
    """A model try whose vertex lies in the ball, in a metastep that may
    move, while its best prefix leaves p = A^T L nonzero beyond rounding,
    also evaluates f at the slope vertex: 1.01 t along -p from the
    incumbent, where that ray leaves the ball at t.  The vertex is held,
    and ends the metastep, only where f is below U: a proven witness if
    f < lb there, else an unproven move.  Either way the next ball is
    centred there and holds the metastep's incumbent."""

    def test_linear_function_moves_past_the_sphere(self, metasteps, slope_vertices):
        # f = x from 0 with R = 1: the first try, after 2 iterations at
        # -0.5, has p = 1.  Its slope vertex, at t = 0.5, lies below
        # lb = -1: a proven witness.  The run's last metastep forms
        # none and closes its bracket on its own sphere.
        f = MaxAffineFunction([[1.0]], [0.0])
        cfg = MetastepConfig(radius=1.0, level_tolerance=1e-6, max_metasteps=2)
        res = run_metasteps(f, [0.0], cfg)
        (_, _, _, first), (_, centre, second_cfg, last) = metasteps
        assert [i for i, _ in slope_vertices] == [0]
        assert first.query_iterations == [2]
        assert first.status is SolveStatus.BOUNDARY_REACHED
        assert first.best_point.tolist() == [-0.5]
        assert first.outside.tolist() == [-0.5 - 1.01 * 0.5]
        assert f.eval(first.outside) < first.alpha_bracket[0] == -1.0
        np.testing.assert_array_equal(centre, first.outside)
        assert second_cfg.radius == cfg.radius
        assert last.outside is None
        assert res.status is SolveStatus.BOUNDARY_REACHED
        lo, hi = res.alpha_bracket
        assert lo <= first.outside[0] - cfg.radius <= hi <= lo + cfg.level_tolerance

    def test_direct_call_closes_as_before(self, slope_vertices):
        # The same f in a direct call: no slope vertex, and the bracket
        # closes on the sphere after the 21 iterations it took before.
        f = MaxAffineFunction([[1.0]], [0.0])
        cfg = MetastepConfig(radius=1.0, level_tolerance=1e-6)
        alone = bisect_level(f, [0.0], cfg)
        assert slope_vertices == []
        assert alone.outside is None and alone.iterations == 21
        assert alone.status is SolveStatus.BOUNDARY_REACHED
        assert alone.alpha_bracket == (-1.0, -0.9999990463256836)

    def test_held_only_below_the_incumbent(self, metasteps, slope_vertices):
        # The random functions of test_far_starts_certify_no_value_above_
        # the_minimum.  A slope vertex is formed only in a metastep that
        # may move, lies outside its ball, and is held exactly where f is
        # below U; a held one ends its metastep with the status its lb
        # gives, and the next ball is centred there and holds the
        # metastep's incumbent.
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6, max_metasteps=16)
        ends = Counter()
        for s in range(40):
            rng = np.random.default_rng([21, s])
            m, n = int(rng.integers(5, 13)), int(rng.integers(2, 5))
            f = MaxAffineFunction(rng.normal(size=(m, n)), rng.normal(size=m))
            x0 = rng.normal(size=n) * (1.0, 10.0, 30.0)[s % 3]
            del metasteps[:], slope_vertices[:]
            run_metasteps(f, x0, cfg)
            for k, (i, past) in enumerate(slope_vertices):
                _, centre, step_cfg, step = metasteps[i]
                assert i < cfg.max_metasteps - 1
                assert np.linalg.norm(past - centre) > step_cfg.radius
                value = f.eval(past)
                held = step.outside is not None and np.array_equal(step.outside, past)
                assert held == (value < step.best_value)
                if not held:
                    ends["not held"] += 1
                    continue
                assert k == len(slope_vertices) - 1 or slope_vertices[k + 1][0] > i
                proven = value < step.alpha_bracket[0]
                assert step.status is (SolveStatus.BOUNDARY_REACHED if proven
                                       else SolveStatus.BUDGET_EXHAUSTED)
                ends["proven" if proven else "unproven"] += 1
                _, next_centre, next_cfg, _ = metasteps[i + 1]
                np.testing.assert_array_equal(next_centre, past)
                gap = np.linalg.norm(past - step.best_point)
                assert next_cfg.radius == max(step_cfg.radius, 1.5 * gap)
        assert ends == {"proven": 142, "unproven": 79, "not held": 23}

    def test_none_where_p_is_zero_up_to_rounding(self, slope_vertices):
        # max(0.1 (x - 1), -0.3 (x - 1)): the simplex weights (3/4, 1/4)
        # leave p = -8.0e-17, a rounding residue.  No slope vertex is
        # formed, and the walk from 10 moves on the model's vertex 1.
        rows = np.array([[0.1], [-0.3]])
        f = MaxAffineFunction(rows, -rows[:, 0])
        assert min_norm_weights(rows).dot(rows)[0] != 0.0
        x0 = np.array([10.0])
        assert solver._model_step(f, x0, x0, 2.0)[2] is None
        cfg = MetastepConfig(radius=2.0, level_tolerance=1e-6)
        res = run_metasteps(f, x0, cfg)
        assert slope_vertices == []
        assert res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
        lo, hi = res.alpha_bracket
        assert lo <= 0.0 <= hi <= lo + cfg.level_tolerance
