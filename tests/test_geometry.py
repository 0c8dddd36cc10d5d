import math
import sys

import numpy as np
import numpy.testing as npt
import pytest

from epicut import (
    CutKind,
    DegenerateShape,
    DimensionMismatch,
    Ellipsoid,
    Halfspace,
    PreconditionViolated,
    central_cut,
    deep_cut,
    intersects_halfspace,
)
from epicut.geometry import _PIVOT_FLOOR, _binade, cut_in_place


def central_volume_log_ratio(d: int) -> float:
    """Closed-form volume ratio of one central cut in dimension d."""
    return math.log((d / (d + 1.0)) * (d * d / (d * d - 1.0)) ** ((d - 1) / 2.0))


def sample_in_ellipsoid(e: Ellipsoid, count: int, rng) -> np.ndarray:
    """Uniform samples inside E via the Cholesky factor of the shape."""
    d = e.dim
    chol = np.linalg.cholesky(e.shape_inv)
    dirs = rng.normal(size=(count, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / d)
    return e.center + (dirs * radii[:, None]) @ chol.T


class TestEllipsoid:
    def test_ball_basics(self):
        e = Ellipsoid.ball(np.array([1.0, -2.0]), 3.0)
        assert e.dim == 2
        npt.assert_allclose(e.shape_inv, 9.0 * np.eye(2))
        assert e.log_volume_ratio == 0.0
        assert e.contains(np.array([1.0, -2.0]))
        assert e.contains(np.array([4.0, -2.0]))  # boundary
        assert not e.contains(np.array([4.1, -2.0]))

    def test_ball_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            Ellipsoid.ball(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            Ellipsoid.ball(np.zeros(2), -1.0)

    def test_non_positive_definite_rejected(self):
        with pytest.raises(DegenerateShape):
            Ellipsoid(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(DegenerateShape):
            Ellipsoid(np.zeros(2), np.zeros((2, 2)))
        # A ball whose squared radius falls below the pivot floor.
        for radius in (1e-151, 1e-200, 5e-324):
            assert radius * radius < _PIVOT_FLOOR
            with pytest.raises(DegenerateShape):
                Ellipsoid.ball(np.zeros(2), radius)
            with pytest.raises(DegenerateShape):
                Ellipsoid(np.zeros(2), (radius * radius) * np.eye(2))

    def test_ball_factor_is_the_cholesky_factor(self):
        # R I is the Cholesky factor of R^2 I bit for bit: sqrt(fl(R^2)) = R.
        rng = np.random.default_rng(19)
        radii = np.concatenate([10.0 ** np.arange(-150, 151, 5),
                                10.0 ** rng.uniform(-150, 150, 200)])
        for radius in radii:
            d = int(rng.integers(1, 9))
            e = Ellipsoid.ball(rng.normal(size=d), float(radius))
            expected = np.linalg.cholesky((radius * radius) * np.eye(d))
            assert e.factor.tobytes() == expected.tobytes()
            assert e.log_volume_ratio == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Ellipsoid(np.zeros(3), np.eye(2))

    def test_quadratic_form_values(self):
        e = Ellipsoid(np.zeros(2), np.diag([4.0, 1.0]))
        assert e.quadratic_form(np.array([2.0, 0.0])) == pytest.approx(1.0)
        assert e.quadratic_form(np.array([0.0, 1.0])) == pytest.approx(1.0)
        assert e.quadratic_form(np.array([1.0, 0.5])) == pytest.approx(0.5)

    def test_contains_many_matches_scalar(self):
        rng = np.random.default_rng(3)
        e = Ellipsoid(rng.normal(size=3), np.diag([1.0, 4.0, 0.25]))
        pts = rng.normal(size=(50, 3))
        flags = e.contains_many(pts)
        for point, flag in zip(pts, flags):
            assert flag == e.contains(point)


class TestHalfspace:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace(np.zeros(2), np.zeros(2))

    def test_violation_sign(self):
        h = Halfspace(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert h.violation(np.array([0.0, 5.0])) < 0.0
        assert h.violation(np.array([1.0, 5.0])) == 0.0
        assert h.violation(np.array([2.0, 0.0])) > 0.0


class TestCentralCut:
    def test_unit_case_center(self):
        # Cutting the unit ball against {x1 >= 0} moves the center to
        # (1/(d+1), 0) = (1/3, 0).
        e = Ellipsoid.ball(np.zeros(2), 1.0)
        out = central_cut(e, Halfspace(np.array([-1.0, 0.0]), np.zeros(2)))
        assert out.kind is CutKind.UPDATED
        npt.assert_allclose(out.ellipsoid.center, [1.0 / 3.0, 0.0], atol=1e-12)

    def test_unit_case_semi_axes(self):
        e = Ellipsoid.ball(np.zeros(2), 1.0)
        out = central_cut(e, Halfspace(np.array([-1.0, 0.0]), np.zeros(2)))
        eigs = np.sort(np.linalg.eigvalsh(out.ellipsoid.shape_inv))
        npt.assert_allclose(eigs, [4.0 / 9.0, 4.0 / 3.0], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_volume_law(self, d):
        e = Ellipsoid.ball(np.zeros(d), 1.0)
        normal = np.zeros(d)
        normal[0] = -1.0
        out = central_cut(e, Halfspace(normal, np.zeros(d)))
        expected = central_volume_log_ratio(d)
        assert out.ellipsoid.log_volume_ratio == pytest.approx(expected, rel=1e-9)
        assert out.ellipsoid.log_volume_ratio <= -1.0 / (2.0 * (d + 1))

    def test_anchor_must_sit_at_center(self):
        e = Ellipsoid.ball(np.zeros(2), 1.0)
        with pytest.raises(PreconditionViolated):
            central_cut(e, Halfspace(np.array([1.0, 0.0]), np.array([0.5, 0.0])))

    def test_depth_zero_matches_deep_cut_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            basis = rng.normal(size=(d, d))
            shape = basis @ basis.T + d * np.eye(d)
            center = rng.normal(size=d)
            e = Ellipsoid(center, shape)
            normal = rng.normal(size=d)
            while not np.linalg.norm(normal) > 0.1:
                normal = rng.normal(size=d)
            a = central_cut(e, Halfspace(normal, center.copy()))
            b = deep_cut(e, Halfspace(normal, center.copy()), 0.0)
            npt.assert_allclose(a.ellipsoid.center, b.ellipsoid.center, rtol=1e-14)
            npt.assert_allclose(a.ellipsoid.shape_inv, b.ellipsoid.shape_inv, rtol=1e-14)
            assert a.ellipsoid.log_volume_ratio == pytest.approx(
                b.ellipsoid.log_volume_ratio, rel=1e-14
            )


class TestDeepCut:
    def test_interval_hand_values(self):
        # [-1, 1] cut by {x >= 0.5}: alpha = 0.5, center 0.75, width 0.25.
        e = Ellipsoid.ball(np.zeros(1), 1.0)
        out = deep_cut(e, Halfspace(np.array([-1.0]), np.zeros(1)), 0.5)
        assert out.kind is CutKind.UPDATED
        assert out.depth_used == pytest.approx(0.5)
        npt.assert_allclose(out.ellipsoid.center, [0.75], atol=1e-14)
        npt.assert_allclose(out.ellipsoid.shape_inv, [[0.0625]], atol=1e-14)
        assert out.ellipsoid.log_volume_ratio == pytest.approx(math.log(0.25))

    def test_empty_intersection(self):
        e = Ellipsoid.ball(np.zeros(2), 1.0)
        out = deep_cut(e, Halfspace(np.array([1.0, 0.0]), np.zeros(2)), 1.5)
        assert out.kind is CutKind.EMPTY_INTERSECTION
        assert out.ellipsoid is None
        assert out.depth_used == pytest.approx(1.5)

    def test_no_cut_when_plane_beyond_far_side(self):
        e = Ellipsoid.ball(np.zeros(2), 1.0)
        out = deep_cut(e, Halfspace(np.array([1.0, 0.0]), np.zeros(2)), -0.9)
        assert out.kind is CutKind.NO_CUT
        assert out.ellipsoid is None

    def test_shallow_cut_still_updates(self):
        e = Ellipsoid.ball(np.zeros(2), 1.0)
        out = deep_cut(e, Halfspace(np.array([1.0, 0.0]), np.zeros(2)), -0.2)
        assert out.kind is CutKind.UPDATED
        assert out.ellipsoid.log_volume_ratio < 0.0

    def test_dimension_mismatch(self):
        e = Ellipsoid.ball(np.zeros(2), 1.0)
        with pytest.raises(DimensionMismatch):
            deep_cut(e, Halfspace(np.array([1.0]), np.zeros(1)), 0.0)

    def test_containment_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            basis = rng.normal(size=(d, d))
            e = Ellipsoid(rng.normal(size=d), basis @ basis.T + d * np.eye(d))
            normal = rng.normal(size=d)
            pts = sample_in_ellipsoid(e, 400, rng)
            margins = pts @ normal - float(normal @ e.center)
            # Put the plane at the 40th percentile so the kept set is fat.
            slack = max(0.0, -float(np.percentile(margins, 40)))
            out = deep_cut(e, Halfspace(normal, e.center.copy()), slack)
            assert out.kind is CutKind.UPDATED
            kept = pts[margins + slack <= 0.0]
            assert kept.shape[0] > 0
            q = np.array([out.ellipsoid.quadratic_form(p) for p in kept])
            assert float(q.max()) <= 1.0 + 1e-9

    def test_volume_drops_monotonically(self):
        e = Ellipsoid.ball(np.zeros(3), 2.0)
        log_prev = 0.0
        rng = np.random.default_rng(9)
        for _ in range(30):
            normal = rng.normal(size=3)
            out = deep_cut(e, Halfspace(normal, e.center.copy()), 0.0)
            assert out.kind is CutKind.UPDATED
            e = out.ellipsoid
            assert e.log_volume_ratio < log_prev
            log_prev = e.log_volume_ratio


class TestCutInPlace:
    @staticmethod
    def cases():
        """Random ellipsoids, normals and slacks of every outcome kind."""
        rng = np.random.default_rng(17)
        for _ in range(60):
            d = int(rng.integers(1, 7))
            basis = rng.normal(size=(d, d))
            e = Ellipsoid(rng.normal(size=d), basis @ basis.T + 0.1 * np.eye(d))
            for _ in range(3):
                e = deep_cut(e, Halfspace(rng.normal(size=d), e.center), 0.0).ellipsoid
            normal = rng.normal(size=d)
            width = float(np.linalg.norm(e.factor.T @ normal))
            for alpha in (-1.5 / d, -0.5 / d, 0.0, 0.3, 0.9, 1.2):
                yield e, normal, alpha * width

    def test_deep_cut_is_pure_and_equals_kernel(self):
        kinds = set()
        for e, normal, slack in self.cases():
            before = (e.center.copy(), e.factor.copy(), e.log_volume_ratio)
            out = deep_cut(e, Halfspace(normal, np.zeros_like(normal)), slack)
            # The input is left bit for bit as it was.
            npt.assert_array_equal(e.center, before[0])
            npt.assert_array_equal(e.factor, before[1])
            assert e.log_volume_ratio == before[2]
            # The in-place kernel on a copy gives the same ellipsoid bit for bit.
            work = e.copy()
            kind, alpha, width = cut_in_place(work, normal, slack)
            kinds.add(kind)
            assert (kind, alpha) == (out.kind, out.depth_used)
            # The width is that of the ellipsoid before the cut.
            assert width == float(np.linalg.norm(before[1].T @ normal))
            assert alpha == slack / width
            if kind is CutKind.UPDATED:
                npt.assert_array_equal(work.center, out.ellipsoid.center)
                npt.assert_array_equal(work.factor, out.ellipsoid.factor)
                assert work.log_volume_ratio == out.ellipsoid.log_volume_ratio
            else:
                # No update leaves the working ellipsoid untouched too.
                assert out.ellipsoid is None
                npt.assert_array_equal(work.center, before[0])
                npt.assert_array_equal(work.factor, before[1])
                assert work.log_volume_ratio == before[2]
        assert kinds == set(CutKind)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_cut_invariant_under_power_of_two_scaling(self):
        # Scaling normal and slack together leaves the cut as it is, also
        # when ||J^T normal||^2 underflows or overflows and the kernel
        # rescales; the width stays in the units of the normal.
        for e, normal, slack in self.cases():
            reference = e.copy()
            kind, alpha, width = cut_in_place(reference, normal, slack)
            for k in (-1000, -600, -560, 300, 560, 1000):
                work = e.copy()
                got = cut_in_place(work, np.ldexp(normal, k), math.ldexp(slack, k))
                assert got == (kind, alpha, math.ldexp(width, k))
                npt.assert_array_equal(work.center, reference.center)
                npt.assert_array_equal(work.factor, reference.factor)
                assert work.log_volume_ratio == reference.log_volume_ratio

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_normal_in_the_top_binade(self):
        # Largest entry in [2^1023, 2^1024): the kernel's scale factors
        # must stay finite (2^1024 raised OverflowError).  The cut is the
        # one of the unscaled normal; the width overflows to inf exactly
        # when it exceeds the largest float.
        for e, normal, slack in self.cases():
            k = 1024 - math.frexp(float(np.max(np.abs(normal))))[1]
            big_slack = float(np.ldexp(slack, k))
            if math.isinf(big_slack):
                continue  # a different cut: the slack itself overflowed
            reference = e.copy()
            kind, alpha, width = cut_in_place(reference, normal, slack)
            work = e.copy()
            got = cut_in_place(work, np.ldexp(normal, k), big_slack)
            assert got == (kind, alpha, float(np.ldexp(width, k)))
            npt.assert_array_equal(work.center, reference.center)
            npt.assert_array_equal(work.factor, reference.factor)
        e = Ellipsoid.ball(np.zeros(1), 1.0)
        assert cut_in_place(e, np.array([9e307]), 0.0) == (CutKind.UPDATED, 0.0, 9e307)
        npt.assert_array_equal(e.center, [-0.5])

    def test_zero_normal_cut(self):
        # The constraint slack <= 0 holds nowhere or everywhere.
        for slack, expected in ((0.5, (CutKind.EMPTY_INTERSECTION, math.inf, 0.0)),
                                (0.0, (CutKind.NO_CUT, -math.inf, 0.0)),
                                (-0.5, (CutKind.NO_CUT, -math.inf, 0.0))):
            e = Ellipsoid.ball(np.zeros(3), 2.0)
            assert cut_in_place(e, np.zeros(3), slack) == expected
            npt.assert_array_equal(e.center, np.zeros(3))
            npt.assert_array_equal(e.factor, 2.0 * np.eye(3))

    def test_kernel_replaces_center_and_leaves_copies_alone(self):
        e = Ellipsoid.ball(np.zeros(3), 2.0)
        twin = e.copy()
        old_center = e.center
        kind, _, _ = cut_in_place(e, np.array([1.0, -2.0, 0.5]), 0.1)
        assert kind is CutKind.UPDATED
        # The old center array still reads the pre-cut center.
        assert e.center is not old_center
        npt.assert_array_equal(old_center, np.zeros(3))
        npt.assert_array_equal(twin.center, np.zeros(3))
        npt.assert_array_equal(twin.factor, 2.0 * np.eye(3))
        assert twin.log_volume_ratio == 0.0 > e.log_volume_ratio


def matmul_cut(e: Ellipsoid, normal: np.ndarray, slack: float):
    """cut_in_place's arithmetic, in its order, spelled with matmul and a
    broadcast outer product: ((kind, alpha, width), (center, factor,
    log volume ratio) after the cut, or None when E is left as it is)."""
    d = e.dim
    factor = e.factor.copy()
    g = factor.T @ normal
    h2 = float(g @ g)
    scale = 1.0
    if not sys.float_info.min <= h2 < math.inf:
        if not np.any(normal):
            if slack > 0.0:
                return (CutKind.EMPTY_INTERSECTION, math.inf, 0.0), None
            return (CutKind.NO_CUT, -math.inf, 0.0), None
        scale = _binade(normal)
        g = factor.T @ (normal / scale)
        g_scale = _binade(g)
        g = g / g_scale
        slack = slack / scale / g_scale
        scale *= g_scale
        h2 = float(g @ g)
    root = math.sqrt(h2)
    width = root * scale
    alpha = float(slack) / root
    if alpha >= 1.0:
        return (CutKind.EMPTY_INTERSECTION, alpha, width), None
    if alpha <= -1.0 / d:
        return (CutKind.NO_CUT, alpha, width), None
    v = g / root
    u = factor @ v
    center = e.center - (1.0 + d * alpha) / (d + 1.0) * u
    if d == 1:
        factor *= (1.0 - alpha) / 2.0
        dlog = math.log((1.0 - alpha) / 2.0)
    else:
        sigma = d * d * (1.0 - alpha * alpha) / (d * d - 1.0)
        keep = (d - 1.0) * (1.0 - alpha) / ((d + 1.0) * (1.0 + alpha))
        correction = u[:, None] * v
        correction *= 1.0 - math.sqrt(keep)
        factor -= correction
        factor *= math.sqrt(sigma)
        dlog = 0.5 * (d * math.log(sigma) + math.log(keep))
    return (CutKind.UPDATED, alpha, width), (center, factor, e.log_volume_ratio + dlog)


class TestKernelBits:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_kernel_equals_matmul_reference_bit_for_bit(self):
        # The kernel's ndarray.dot products must round as matmul does, at
        # every dimension the package serves, for every outcome, and on
        # the rescaled path (normals scaled by 2^-560 and 2^560).
        rng = np.random.default_rng(23)
        kinds = set()
        for d in range(1, 50):
            basis = rng.normal(size=(d, d))
            e = Ellipsoid(rng.normal(size=d), basis @ basis.T + 0.1 * np.eye(d))
            for _ in range(3):
                cut_in_place(e, rng.normal(size=d), 0.0)
            normal = rng.normal(size=d)
            width = float(np.linalg.norm(e.factor.T @ normal))
            for alpha in (-1.5 / d, -0.5 / d, 0.0, 0.3, 0.9, 1.2):
                for k in (0, -560, 560):
                    h, slack = np.ldexp(normal, k), math.ldexp(alpha * width, k)
                    expected, after = matmul_cut(e, h, slack)
                    work = e.copy()
                    assert cut_in_place(work, h, slack) == expected
                    kinds.add(expected[0])
                    if after is None:
                        after = (e.center, e.factor, e.log_volume_ratio)
                    npt.assert_array_equal(work.center, after[0])
                    npt.assert_array_equal(work.factor, after[1])
                    assert work.log_volume_ratio == after[2]
            for slack in (0.5, 0.0):
                expected, after = matmul_cut(e, np.zeros(d), slack)
                assert after is None
                assert cut_in_place(e.copy(), np.zeros(d), slack) == expected
        assert kinds == set(CutKind)


class TestIntersectsHalfspace:
    def test_obvious_cases(self):
        e = Ellipsoid.ball(np.zeros(2), 1.0)
        inside = Halfspace(np.array([1.0, 0.0]), np.array([0.5, 0.0]))
        assert intersects_halfspace(e, inside)
        outside = Halfspace(np.array([1.0, 0.0]), np.array([-1.5, 0.0]))
        assert not intersects_halfspace(e, outside)

    def test_matches_support_function(self):
        rng = np.random.default_rng(17)
        agree = 0
        for _ in range(300):
            d = int(rng.integers(1, 6))
            basis = rng.normal(size=(d, d))
            e = Ellipsoid(rng.normal(size=d), basis @ basis.T + 0.5 * np.eye(d))
            h = Halfspace(rng.normal(size=d) + 1e-3, rng.normal(size=d) * 2.0)
            # min over E of h.normal @ x, by the support formula
            width = math.sqrt(float(h.normal @ (e.shape_inv @ h.normal)))
            lowest = float(h.normal @ e.center) - width
            analytic = lowest <= float(h.normal @ h.anchor)
            agree += analytic == intersects_halfspace(e, h)
        assert agree == 300


def deep_cut_log_ratio(d: int, alpha: float) -> float:
    """Closed-form volume ratio of one deep cut at normalized depth alpha."""
    sigma = d * d * (1.0 - alpha * alpha) / (d * d - 1.0)
    keep = (d - 1.0) * (1.0 - alpha) / ((d + 1.0) * (1.0 + alpha))
    return 0.5 * (d * math.log(sigma) + math.log(keep))


class TestFactorForm:
    def test_thin_slab_cuts_stay_valid(self):
        # Split equality rows make the solver cut a slab from both sides in
        # turn once the ellipsoid is about as thin as the slab.  Each
        # episode localizes K = {|w.(x - z)| <= 5e-10, |(x - z) across w| <=
        # rho} from a ball: the violated slab face first, then random
        # normals aimed past the center or the radial support of K, and rho
        # halves (down to 1e-6) whenever no cut of positive depth keeps K.
        rng = np.random.default_rng(13)
        d, half = 4, 0.5e-9
        cuts = flips = randoms = 0
        while cuts < 500:
            w = rng.normal(size=d)
            w /= np.linalg.norm(w)
            z = rng.uniform(-0.3, 0.3, d)
            across = np.eye(d) - np.outer(w, w)

            def slab_points(rho, k=200):
                v = rng.normal(size=(k, d)) @ across
                v *= (rho * rng.random(k) ** (1.0 / 3.0) / np.linalg.norm(v, axis=1))[:, None]
                return z + v + np.outer(rng.uniform(-half, half, k), w)

            rho = 0.3
            pts = slab_points(rho)
            e = Ellipsoid.ball(np.zeros(d), 2.0)
            expected = 0.0
            last = None
            while True:
                gap = e.center - z
                off = float(w @ gap)
                r = gap / np.linalg.norm(gap) + 0.3 * rng.normal(size=d)
                r /= np.linalg.norm(r)
                # max of r.x over K is r.z + half |r.w| + rho |r across w|
                r_slack = (float(r @ gap) - half * abs(float(r @ w))
                           - rho * float(np.linalg.norm(across @ r)))
                radial = across @ gap
                radial_norm = float(np.linalg.norm(radial))
                if off > half:
                    normal, slack, kind = w, off - half, "upper"
                elif -off > half:
                    normal, slack, kind = -w, -off - half, "lower"
                elif r_slack > 0.0 and cuts % 3 == 0:
                    normal, slack, kind = r, r_slack, "random"
                elif radial_norm > rho:
                    normal, slack, kind = radial / radial_norm, radial_norm - rho, "radial"
                elif rho > 1e-6:
                    rho /= 2.0
                    pts = slab_points(rho)
                    continue
                else:
                    break
                out = deep_cut(e, Halfspace(normal, e.center.copy()), slack)
                cuts += 1
                # K is nonempty and every cut keeps it, so an empty
                # intersection would be a false proof.
                assert out.kind is CutKind.UPDATED
                flips += {kind, last} == {"upper", "lower"}
                randoms += kind == "random"
                last = kind
                e = out.ellipsoid
                expected += deep_cut_log_ratio(d, out.depth_used)
                assert e.log_volume_ratio == pytest.approx(expected, rel=1e-12)
                eigs = np.linalg.eigvalsh(e.shape_inv)
                assert eigs[0] >= -1e-13 * eigs[-1]
                assert e.contains_many(pts).all()
        assert flips >= 100 and randoms >= 50
