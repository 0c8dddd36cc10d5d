"""Ellipsoid geometry: membership, halfspace intersection, cut updates.

An ellipsoid is stored as a center c and a square-root factor J of its
shape matrix P = J J^T, with E = { x : (x - c)^T P^{-1} (x - c) <= 1 }.
A cut is one O(d^2) rank-one update of J, applied in place by
``cut_in_place``; the shape is factored only when an ellipsoid is built
from an explicit P (a ball gets its factor R I directly).  Membership
is evaluated through a solve with J, so P is never inverted explicitly.
Volume is tracked in log space from the closed-form per-cut determinant
ratio instead of recomputed determinants.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateShape, DimensionMismatch, PreconditionViolated

# Squared Cholesky pivots below this signal a numerically collapsed shape.
_PIVOT_FLOOR = 1e-300

_MEMBERSHIP_TOL = 1e-9

# Squared cut widths below this (the smallest normal float) have lost
# precision or underflowed to 0; the kernel rescales those and overflows.
_NORM2_FLOOR = sys.float_info.min


class Ellipsoid:
    """E = { x : (x - center)^T P^{-1} (x - center) <= 1 } with P = J J^T.

    ``factor`` is the square-root factor J; ``shape_inv`` derives P from
    it.  ``cut_in_place`` replaces the factor with a rank-one correction
    of itself, so the shape stays positive semidefinite by construction
    and no cut ever refactors it.  Code that must keep an ellipsoid as it
    is cuts a ``copy()``.
    """

    __slots__ = ("dim", "center", "factor", "log_volume_ratio")

    def __init__(self, center, shape_inv, log_volume_ratio: float = 0.0):
        center = np.asarray(center, dtype=float)
        shape = np.asarray(shape_inv, dtype=float)
        if center.ndim != 1 or center.size == 0:
            raise DimensionMismatch("center must be a nonempty vector")
        d = center.shape[0]
        if shape.shape != (d, d):
            raise DimensionMismatch(
                f"shape matrix is {shape.shape}, expected ({d}, {d})"
            )
        shape = (shape + shape.T) / 2.0
        try:
            chol = np.linalg.cholesky(shape)
        except np.linalg.LinAlgError as exc:
            raise DegenerateShape("shape matrix is not positive definite") from exc
        pivot = float(np.min(np.diagonal(chol)))
        if pivot * pivot < _PIVOT_FLOOR:
            raise DegenerateShape(
                f"smallest factorization pivot {pivot * pivot:.3e} below {_PIVOT_FLOOR:g}"
            )
        self.dim = d
        self.center = center
        self.factor = chol
        self.log_volume_ratio = float(log_volume_ratio)

    def copy(self) -> "Ellipsoid":
        """An independent copy: cutting it leaves this ellipsoid unchanged.

        The factor is already valid, so it is not re-checked.
        """
        return Ellipsoid._from_factor(
            self.center.copy(), self.factor.copy(), self.log_volume_ratio
        )

    @classmethod
    def _from_factor(cls, center, factor, log_volume_ratio: float) -> "Ellipsoid":
        """An ellipsoid from a factor known to be valid, with no checks."""
        e = cls.__new__(cls)
        e.dim = center.shape[0]
        e.center = center
        e.factor = factor
        e.log_volume_ratio = log_volume_ratio
        return e

    @classmethod
    def ball(cls, center, radius: float) -> "Ellipsoid":
        """The ball B(center, radius), with factor radius * I.

        That is the Cholesky factor of radius^2 I bit for bit, since
        sqrt(fl(R^2)) = R, so the ball skips the factorization.
        """
        center = np.asarray(center, dtype=float)
        if not radius > 0.0:
            raise ValueError("ball radius must be positive")
        if center.ndim != 1 or center.size == 0:
            raise DimensionMismatch("center must be a nonempty vector")
        radius = float(radius)
        if radius * radius < _PIVOT_FLOOR:
            raise DegenerateShape(
                f"smallest factorization pivot {radius * radius:.3e} below {_PIVOT_FLOOR:g}"
            )
        return cls._from_factor(center, np.diag(np.full(center.shape[0], radius)), 0.0)

    @property
    def shape_inv(self) -> np.ndarray:
        """The shape matrix P = J J^T."""
        return self.factor @ self.factor.T

    def quadratic_form(self, x) -> float:
        """(x - c)^T P^{-1} (x - c) = ||J^{-1} (x - c)||^2."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.center.shape:
            raise DimensionMismatch("point dimension does not match ellipsoid")
        w = np.linalg.solve(self.factor, x - self.center)
        return float(w @ w)

    def contains(self, x) -> bool:
        return self.quadratic_form(x) <= 1.0 + _MEMBERSHIP_TOL

    def contains_many(self, points) -> np.ndarray:
        """Vectorized membership for an (k, dim) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatch("points must be a (k, dim) array")
        w = np.linalg.solve(self.factor, (pts - self.center).T)
        return (w * w).sum(axis=0) <= 1.0 + _MEMBERSHIP_TOL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Ellipsoid(dim={self.dim}, center={self.center!r}, "
            f"log_volume_ratio={self.log_volume_ratio:.6f})"
        )


class Halfspace:
    """{ x : normal^T (x - anchor) <= 0 }."""

    __slots__ = ("normal", "anchor")

    def __init__(self, normal, anchor):
        normal = np.asarray(normal, dtype=float)
        anchor = np.asarray(anchor, dtype=float)
        if normal.ndim != 1 or anchor.shape != normal.shape:
            raise DimensionMismatch("normal and anchor must be vectors of equal length")
        if not float(normal @ normal) > 0.0:
            raise ValueError("halfspace normal must be nonzero")
        self.normal = normal
        self.anchor = anchor

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def violation(self, x) -> float:
        """normal^T (x - anchor); positive outside the halfspace."""
        return float(self.normal @ (np.asarray(x, dtype=float) - self.anchor))


class CutKind(Enum):
    UPDATED = "updated"
    EMPTY_INTERSECTION = "empty_intersection"
    NO_CUT = "no_cut"


@dataclass(frozen=True, eq=False)
class CutOutcome:
    kind: CutKind
    ellipsoid: Optional[Ellipsoid]  # present only for UPDATED
    depth_used: float               # normalized depth alpha


def _binade(a: np.ndarray) -> float:
    """The power of two 2^k with max |a| in [2^k, 2^(k+1)); 1/2 for 0,
    inf or NaN.  2^k never exceeds the largest float, which 2^(k+1)
    would for an entry of 2^1023 or more."""
    return math.ldexp(1.0, math.frexp(float(np.max(np.abs(a))))[1] - 1)


def cut_in_place(
    e: Ellipsoid, normal: np.ndarray, slack: float
) -> Tuple[CutKind, float, float]:
    """Cut E at depth ``slack`` along ``normal``, updating E in place.

    The cut constraint is { x : normal^T (x - e.center) + slack <= 0 }.
    With alpha = slack / ||J^T normal||: alpha >= 1 certifies an empty
    intersection, alpha <= -1/d means the plane lies beyond the far side
    and no update helps (NO_CUT); E is left unchanged in both cases.
    Otherwise E becomes the minimum-volume ellipsoid containing the cut:
    the factor is overwritten, the center replaced by a new array (so a
    caller's reference to the old center still reads the old center),
    and the log volume ratio grows by the closed-form per-cut ratio.
    Returns the kind of outcome, alpha and the width ||J^T normal|| of E
    before the cut: E spans normal^T (x - c) over [-width, width].  A
    negative slack (shallow cut) is accepted; the solver only ever
    passes slack >= 0.  A zero normal gives width 0: the constraint
    slack <= 0 then holds nowhere (EMPTY_INTERSECTION, alpha = inf) or
    everywhere (NO_CUT, alpha = -inf).  A nonzero normal whose
    ||J^T normal||^2 underflows or overflows is cut after scaling normal,
    J^T normal and slack by powers of two, which leaves the cut
    unchanged; the width is still reported in the units of ``normal``,
    and is inf when it exceeds the largest float.

    With H = normal, the update P' = sigma (P - tau u u^T),
    u = P H / ||J^T H||, is applied to the factor: with
    v = J^T H / ||J^T H|| (so u = J v),
    J' = sqrt(sigma) (J - (1 - sqrt(1 - tau)) u v^T) satisfies J' J'^T = P'.
    """
    d = e.dim
    factor = e.factor
    # ndarray.dot for every product: on the C-contiguous factor and the
    # vectors it gives matmul's bits at half its dispatch cost.
    g = normal.dot(factor)
    h2 = float(g.dot(g))
    scale = 1.0
    if not _NORM2_FLOOR <= h2 < math.inf:
        if not np.any(normal):
            if slack > 0.0:
                return CutKind.EMPTY_INTERSECTION, math.inf, 0.0
            return CutKind.NO_CUT, -math.inf, 0.0
        # Scale the normal, then J^T normal, to a largest entry in
        # [1, 2); powers of two change no bit of v or alpha.
        scale = _binade(normal)
        g = (normal / scale).dot(factor)
        g_scale = _binade(g)
        g = g / g_scale
        slack = slack / scale / g_scale
        scale *= g_scale
        h2 = float(g.dot(g))
        if not 0.0 < h2 < math.inf:
            raise DegenerateShape("cut direction has no finite nonzero ellipsoid norm")
    root = math.sqrt(h2)
    width = root * scale
    alpha = float(slack) / root
    if alpha >= 1.0:
        return CutKind.EMPTY_INTERSECTION, alpha, width
    if alpha <= -1.0 / d:
        return CutKind.NO_CUT, alpha, width
    v = g / root
    u = factor.dot(v)
    step = (1.0 + d * alpha) / (d + 1.0)
    e.center = e.center - step * u
    if d == 1:
        # The generic formulas divide by d^2 - 1; the 1-D interval update
        # is exact and trivial.
        factor *= (1.0 - alpha) / 2.0
        dlog = math.log((1.0 - alpha) / 2.0)
    else:
        sigma = d * d * (1.0 - alpha * alpha) / (d * d - 1.0)
        keep = (d - 1.0) * (1.0 - alpha) / ((d + 1.0) * (1.0 + alpha))  # 1 - tau
        correction = u[:, None].dot(v[None, :])
        correction *= 1.0 - math.sqrt(keep)
        factor -= correction
        factor *= math.sqrt(sigma)
        # vol(E')/vol(E) = sqrt(sigma^d * (1 - tau)).
        dlog = 0.5 * (d * math.log(sigma) + math.log(keep))
    e.log_volume_ratio += dlog
    return CutKind.UPDATED, alpha, width


def deep_cut(e: Ellipsoid, h: Halfspace, slack: float) -> CutOutcome:
    """Minimum-volume ellipsoid containing E cut at depth ``slack``.

    The cut constraint is { x : h.normal^T (x - e.center) + slack <= 0 };
    h.anchor plays no role here.  E itself is left unchanged: the update
    is ``cut_in_place`` applied to a copy, whose docstring gives the
    formulas and the meaning of the outcome kinds.
    """
    if h.dim != e.dim:
        raise DimensionMismatch("halfspace dimension does not match ellipsoid")
    updated = e.copy()
    kind, alpha, _ = cut_in_place(updated, h.normal, slack)
    return CutOutcome(kind, updated if kind is CutKind.UPDATED else None, alpha)


def central_cut(e: Ellipsoid, h: Halfspace) -> CutOutcome:
    """Cut through the center: h.anchor must coincide with e.center.

    Delegates to deep_cut with slack 0 so the two agree bit for bit.
    """
    if h.dim != e.dim:
        raise DimensionMismatch("halfspace dimension does not match ellipsoid")
    gap = float(np.max(np.abs(h.anchor - e.center)))
    scale = 1.0 + float(np.max(np.abs(e.center)))
    if gap > 1e-9 * scale:
        raise PreconditionViolated(
            "central cut requires the halfspace anchored at the ellipsoid center"
        )
    return deep_cut(e, h, 0.0)


def intersects_halfspace(e: Ellipsoid, h: Halfspace) -> bool:
    """True iff E and the halfspace share a point.

    Short-circuits when the center already satisfies the constraint;
    otherwise compares the center's plane distance against the ellipsoid
    extent along the normal, strictly and with no tolerance padding.
    """
    if h.dim != e.dim:
        raise DimensionMismatch("halfspace dimension does not match ellipsoid")
    s = float(h.normal @ (e.center - h.anchor))
    if s <= 0.0:
        return True
    g = e.factor.T @ h.normal
    return s * s < float(g @ g)
