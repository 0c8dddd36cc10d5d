"""Ellipsoid geometry: membership, halfspace intersection, cut updates.

An ellipsoid is stored as a center c and a square-root factor J of its
shape matrix P = J J^T, with E = { x : (x - c)^T P^{-1} (x - c) <= 1 }.
A cut is one O(d^2) rank-one update of J; the shape is factored only
once, when an ellipsoid is built from an explicit P.  Membership is
evaluated through a solve with J, so P is never inverted explicitly.
Volume is tracked in log space from the closed-form per-cut determinant
ratio instead of recomputed determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DegenerateShape, DimensionMismatch, PreconditionViolated

# Squared Cholesky pivots below this signal a numerically collapsed shape.
_PIVOT_FLOOR = 1e-300

_MEMBERSHIP_TOL = 1e-9


class Ellipsoid:
    """E = { x : (x - center)^T P^{-1} (x - center) <= 1 } with P = J J^T.

    ``factor`` is the square-root factor J; ``shape_inv`` derives P from
    it.  Instances are immutable in use: every cut builds a fresh object
    whose factor is a rank-one correction of the previous one, so the
    shape stays positive semidefinite by construction and no cut ever
    refactors it.
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

    @classmethod
    def _from_factor(cls, center: np.ndarray, factor: np.ndarray,
                     log_volume_ratio: float) -> "Ellipsoid":
        """Wrap an already valid factor without re-checking it."""
        e = cls.__new__(cls)
        e.dim = center.shape[0]
        e.center = center
        e.factor = factor
        e.log_volume_ratio = log_volume_ratio
        return e

    @classmethod
    def ball(cls, center, radius: float) -> "Ellipsoid":
        center = np.asarray(center, dtype=float)
        if not radius > 0.0:
            raise ValueError("ball radius must be positive")
        return cls(center, (radius * radius) * np.eye(center.shape[0]))

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


def deep_cut(e: Ellipsoid, h: Halfspace, slack: float) -> CutOutcome:
    """Minimum-volume ellipsoid containing E cut at depth ``slack``.

    The cut constraint is { x : h.normal^T (x - e.center) + slack <= 0 };
    h.anchor plays no role here.  With alpha = slack / ||J^T H||:
    alpha >= 1 certifies an empty intersection, alpha <= -1/d means the
    plane lies beyond the far side and no update helps (NO_CUT).  A
    negative slack (shallow cut) is accepted; the solver only ever passes
    slack >= 0.

    The update P' = sigma (P - tau u u^T), u = P H / ||J^T H||, is applied
    to the factor: with v = J^T H / ||J^T H|| (so u = J v),
    J' = sqrt(sigma) (J - (1 - sqrt(1 - tau)) u v^T) satisfies J' J'^T = P'.
    """
    if h.dim != e.dim:
        raise DimensionMismatch("halfspace dimension does not match ellipsoid")
    d = e.dim
    g = e.factor.T @ h.normal
    h2 = float(g @ g)
    if not h2 > 0.0:
        raise DegenerateShape("cut direction has nonpositive ellipsoid norm")
    root = math.sqrt(h2)
    alpha = float(slack) / root
    if alpha >= 1.0:
        return CutOutcome(CutKind.EMPTY_INTERSECTION, None, alpha)
    if alpha <= -1.0 / d:
        return CutOutcome(CutKind.NO_CUT, None, alpha)
    v = g / root
    u = e.factor @ v
    step = (1.0 + d * alpha) / (d + 1.0)
    new_center = e.center - step * u
    if d == 1:
        # The generic formulas divide by d^2 - 1; the 1-D interval update
        # is exact and trivial.
        new_factor = e.factor * ((1.0 - alpha) / 2.0)
        dlog = math.log((1.0 - alpha) / 2.0)
    else:
        sigma = d * d * (1.0 - alpha * alpha) / (d * d - 1.0)
        keep = (d - 1.0) * (1.0 - alpha) / ((d + 1.0) * (1.0 + alpha))  # 1 - tau
        new_factor = math.sqrt(sigma) * (
            e.factor - (1.0 - math.sqrt(keep)) * np.outer(u, v)
        )
        # vol(E')/vol(E) = sqrt(sigma^d * (1 - tau)).
        dlog = 0.5 * (d * math.log(sigma) + math.log(keep))
    updated = Ellipsoid._from_factor(new_center, new_factor, e.log_volume_ratio + dlog)
    return CutOutcome(CutKind.UPDATED, updated, alpha)


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
