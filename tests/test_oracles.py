import numpy as np
import numpy.testing as npt
import pytest

from epicut import (
    ConvexOracle,
    DimensionMismatch,
    LinearConstraintSet,
    LinearSystem,
    MaxAffineFunction,
    QuadraticForm,
)


class TestMaxAffine:
    def setup_method(self):
        # f(x) = max(x1 - 1, -x1 - 1, x2): three pieces on R^2
        self.f = MaxAffineFunction(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
            np.array([-1.0, -1.0, 0.0]),
        )

    def test_eval(self):
        assert self.f.eval(np.array([2.0, 0.0])) == pytest.approx(1.0)
        assert self.f.eval(np.array([0.0, 0.5])) == pytest.approx(0.5)
        assert self.f.dim == 2

    def test_first_active_wins_on_tie(self):
        # At (0, -1) rows 0 and 1 tie at -1, row 2 gives -1 as well.
        value, idx = self.f.eval_with_index(np.array([0.0, -1.0]))
        assert value == pytest.approx(-1.0)
        assert idx == 0
        npt.assert_array_equal(self.f.subgradient(np.array([0.0, -1.0])), [1.0, 0.0])

    def test_subgradient_is_active_row(self):
        g = self.f.subgradient(np.array([3.0, 0.0]))
        npt.assert_array_equal(g, [1.0, 0.0])
        g = self.f.subgradient(np.array([0.0, 4.0]))
        npt.assert_array_equal(g, [0.0, 1.0])

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.uniform(-3, 3, size=2)
            y = rng.uniform(-3, 3, size=2)
            g = self.f.subgradient(x)
            assert self.f.eval(y) >= self.f.eval(x) + g @ (y - x) - 1e-12

    def test_convexity_on_sampled_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.uniform(-5, 5, size=2)
            y = rng.uniform(-5, 5, size=2)
            mid = self.f.eval((x + y) / 2.0)
            assert mid <= (self.f.eval(x) + self.f.eval(y)) / 2.0 + 1e-12

    def test_eval_many_matches_loop(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2, 2, size=(64, 2))
        batch = self.f.eval_many(pts)
        single = np.array([self.f.eval(p) for p in pts])
        npt.assert_allclose(batch, single)

    @pytest.mark.parametrize(
        "cls", [MaxAffineFunction, LinearSystem, LinearConstraintSet],
        ids=lambda cls: cls.__name__,
    )
    def test_shape_validation(self, cls):
        with pytest.raises(DimensionMismatch):
            cls(np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            cls(np.zeros((0, 2)), np.zeros(0))


class TestValueAndSubgradient:
    """One pass must give exactly what eval and subgradient give apart."""

    @staticmethod
    def check(f, points):
        for x in points:
            value, g = f.value_and_subgradient(x)
            # Bit for bit, so that NaN and the sign of zero count too.
            assert np.float64(value).tobytes() == np.float64(f.eval(x)).tobytes()
            npt.assert_array_equal(g, f.subgradient(x))

    def test_max_affine_including_ties(self):
        rng = np.random.default_rng(12)
        rows = rng.integers(-2, 3, size=(6, 3)).astype(float)
        f = MaxAffineFunction(rows, rng.integers(-2, 3, size=6).astype(float))
        # Integer points on integer pieces tie often; the smallest active
        # index must win in both paths.
        self.check(f, rng.integers(-3, 4, size=(200, 3)).astype(float))
        self.check(f, rng.normal(size=(50, 3)))

    def test_max_affine_near_ties_and_nan(self):
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(8, 3))
        # Pairs of pieces within 1e-12 of each other, and pieces that tie
        # exactly at the origin.
        offsets = np.array([0.0, 4e-13, -4e-13, 0.0, 2e-12, 0.0, -0.0, 1e-13])
        rows[1] = rows[0]
        rows[2] = rows[0]
        f = MaxAffineFunction(rows, offsets)
        points = np.vstack([np.zeros((1, 3)), rng.normal(size=(100, 3)),
                            [[np.nan, 0.0, 0.0], [np.nan] * 3]])
        self.check(f, points)
        for x in points:
            value, g = f.value_and_subgradient(x)
            vals = rows @ x + offsets
            if np.isnan(x).any():
                # A NaN center: value NaN, and row 0's subgradient.
                assert np.isnan(value)
                npt.assert_array_equal(g, rows[0])
                continue
            assert value == vals.max()
            # The smallest index attaining the max, not one merely near it.
            (active,) = np.nonzero(vals == value)
            npt.assert_array_equal(g, rows[active[0]])

    def test_max_affine_wrong_length_rejected(self):
        f = MaxAffineFunction(np.eye(3), np.zeros(3))
        for x in (np.zeros(2), np.zeros(4), np.zeros((1, 3))):
            for call in (f.value_and_subgradient, f.eval, f.subgradient):
                with pytest.raises(DimensionMismatch):
                    call(x)

    def test_max_affine_returns_a_copy(self):
        f = MaxAffineFunction(np.array([[1.0, 2.0]]), np.zeros(1))
        _, g = f.value_and_subgradient(np.zeros(2))
        g[0] = 7.0
        npt.assert_array_equal(f.rows, [[1.0, 2.0]])

    def test_quadratic_form(self):
        rng = np.random.default_rng(14)
        basis = rng.normal(size=(5, 5))
        self.check(QuadraticForm(basis @ basis.T), rng.normal(size=(50, 5)))

    def test_default_calls_eval_then_subgradient(self):
        class Abs(ConvexOracle):
            dim = 1

            def eval(self, x):
                return float(abs(x[0]))

            def subgradient(self, x):
                return np.sign(x)

        value, g = Abs().value_and_subgradient(np.array([-2.0]))
        assert value == 2.0
        npt.assert_array_equal(g, [-1.0])


class TestQuadraticForm:
    def test_values_and_gradient(self):
        q = QuadraticForm(np.array([[2.0, 0.0], [0.0, 1.0]]))
        x = np.array([1.0, 3.0])
        assert q.eval(x) == pytest.approx(2.0 + 9.0)
        npt.assert_allclose(q.subgradient(x), [4.0, 6.0])

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(8)
        basis = rng.normal(size=(4, 4))
        q = QuadraticForm(basis @ basis.T)
        x = rng.normal(size=4)
        g = q.subgradient(x)
        step = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = step
            fd = (q.eval(x + e) - q.eval(x - e)) / (2 * step)
            assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            QuadraticForm(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_eval_many(self):
        rng = np.random.default_rng(10)
        basis = rng.normal(size=(3, 3))
        q = QuadraticForm(basis @ basis.T)
        pts = rng.normal(size=(20, 3))
        npt.assert_allclose(q.eval_many(pts), [q.eval(p) for p in pts])


class TestLinearConstraintSet:
    def setup_method(self):
        # x1 <= 1 and x2 >= 0, as rows of A z + c <= 0
        self.cons = LinearConstraintSet(
            np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([-1.0, 0.0])
        )

    def test_normalized_max_violation_picks_row(self):
        value, idx = self.cons.normalized_max_violation(np.array([2.0, -3.0]))
        assert idx == 1
        assert value == pytest.approx(3.0)
