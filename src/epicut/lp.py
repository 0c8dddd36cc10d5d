"""Linear inequality systems A x + b <= 0: normalization, feasibility
decision with Farkas certificates, subgradient floors, search radii,
and feasible-point search.

A LinearSystem is also the max-affine function
f(x) = max_k (A_k . x + b_k), which is <= 0 exactly on its feasible
set.  The decision minimizes that f in R^n in metasteps of its own
loop, passing the system itself to the solver, and the point search
reads that run as a point; an infeasible verdict rests on multipliers
of the rows active at the incumbent that pass validate_certificate.
The two floors (subgradient_lower_bound_at and global_radius) are
distances from 0 to a convex hull of row combinations, Wolfe's
minimum-norm-point problem; the NNLS kernel that finds the certificates
solves it, and each floor reports the weak-duality lower bound of that
solution (see _hull_floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional

import numpy as np

from .errors import DimensionMismatch, EmptySystem, PreconditionViolated
from .nnls import min_norm_weights, nnls, simplex_system
from .oracles import MaxAffineFunction
from . import solver
from .solver import MetastepConfig, MetastepResult, join
# run_metasteps is not called here; it stays importable as
# lp.run_metasteps, a name benchmark/tracing.py wraps.
from .solver import run_metasteps  # noqa: F401

# Rows whose coefficient norm is below this once normalize has scaled
# their largest entry into [1/2, 1) are treated as constant rows.
_ZERO_ROW = 1e-150


class LinearSystem(MaxAffineFunction):
    """m inequality rows over R^n: rows[k] . x + offsets[k] <= 0.

    As a function it is f(x) = max_k (rows[k] . x + offsets[k]), the
    function the decision run minimizes.
    """

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def violation(self, x) -> float:
        """Largest row value at x; <= 0 means feasible."""
        return float(np.max(self.rows @ np.asarray(x, dtype=float) + self.offsets))


def normalize(system: LinearSystem) -> LinearSystem:
    """Scale each row so ||(A_k, b_k)|| = 1.

    Each row is first scaled by the power of two that brings its largest
    entry into [1/2, 1), which is exact and keeps its norm in range, so
    the result does not depend on the row's scale.  Constant rows (a
    coefficient norm below _ZERO_ROW after that scaling) are vacuous
    when their offset is nonpositive and are dropped; a constant row
    with positive offset is unsatisfiable and is kept as (0, 1).  No
    other normalized row reaches 1 at the origin, so the decision run's
    first center has a zero subgradient, and the row's unit multiplier
    is the certificate.  Raises EmptySystem when nothing is left (every
    point satisfies the original system).
    """
    top = np.maximum(np.abs(system.rows).max(axis=1), np.abs(system.offsets))
    shift = -np.frexp(top)[1]
    rows = np.ldexp(system.rows, shift[:, None])
    offsets = np.ldexp(system.offsets, shift)
    # Each row's norm from its own dot product: the bits of a per-row
    # np.linalg.norm, which einsum and norm(axis=1) do not keep.
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    constant = norms < _ZERO_ROW
    kept = ~constant | (offsets > 0.0)
    if not kept.any():
        raise EmptySystem("all rows vacuous; any point is feasible")
    # Constant rows become (0, 1); only the others are divided (0/0 warns).
    live = ~constant
    na, b = norms[live], offsets[live]
    scale = np.sqrt(na * na + b * b)
    rows[constant] = 0.0
    rows[live] /= scale[:, None]
    offsets[constant] = 1.0
    offsets[live] = b / scale
    return LinearSystem(rows[kept], offsets[kept])


class FeasibilityVerdict(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE_NON_STRICT = "InfeasibleNonStrict"
    INFEASIBLE_STRICT_ONLY = "InfeasibleStrictOnly"
    # Neither f < 0 nor a certificate within the metastep cap.
    UNDECIDED = "Undecided"


@dataclass
class FeasibilityDecision:
    verdict: FeasibilityVerdict
    certificate: Optional[np.ndarray]
    d_star: float  # ||A^T q||^2 of the certificate; +inf without one
    report: Optional[MetastepResult] = None  # the primal run
    # Always None; kept because benchmark/run.py --check-fidelity reads it.
    phase_one: Optional[MetastepResult] = None


@dataclass
class RadiusBound:
    d_lower: float
    radius: float


class PointSearchOutcome(Enum):
    FEASIBLE_POINT_FOUND = "FeasiblePointFound"
    INFEASIBLE_PROVEN = "InfeasibleProven"
    UNDECIDED = "Undecided"


@dataclass
class PointSearchResult:
    point: Optional[np.ndarray]
    f_value: float
    outcome: PointSearchOutcome
    metastep_report: Optional[MetastepResult]
    radius_used: Optional[float] = None
    # The Farkas certificate behind INFEASIBLE_PROVEN; None otherwise.
    certificate: Optional[np.ndarray] = None


# The primal decision run: start radius, growth per metastep and metastep
# cap, picked by measurement on the acceptance corpus and the m-ladder.
_PRIMAL_RADIUS = 100.0
_PRIMAL_GROWTH = 10.0
_PRIMAL_METASTEPS = 8


def decide_feasibility(
    system: LinearSystem,
    tol: float = 1e-7,
    *,
    trace: bool = False,
) -> FeasibilityDecision:
    """Feasibility decision for a normalized system by minimizing
    f(x) = max_k (A_k . x + b_k) in R^n.

    Runs at most _PRIMAL_METASTEPS metasteps (solver.bisect_level) with
    eps = min(tol/10, 1e-8), the first over the ball of radius
    _PRIMAL_RADIUS around the origin.  A metastep stops at the first
    evaluated x with f(x) < 0, a strictly feasible point: Feasible.
    Once its proven lower bound is above 0, the system is infeasible,
    and every 4(n+1) iterations its hook hands the incumbent to
    _active_certificate; the metastep ends as soon as that q has
    b.q > tol.  After a metastep that ends otherwise, _active_certificate
    is tried at its incumbent once more; without a certificate the next
    metastep runs around it in a ball _PRIMAL_GROWTH times larger.  A
    q with b.q > tol gives InfeasibleNonStrict, one with |b.q| <= tol
    InfeasibleStrictOnly, and neither f < 0 nor a q after the last
    metastep Undecided.  The report joins the metasteps (solver.join);
    ``trace`` records per-cut traces in it (see solver.bisect_level).
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    eps = min(tol / 10.0, 1e-8)
    # stop_when_high_below is strict: f(x) = 0 proves nothing.
    cfg = MetastepConfig(
        radius=_PRIMAL_RADIUS,
        level_tolerance=eps,
        max_metasteps=_PRIMAL_METASTEPS,
        radius_growth=_PRIMAL_GROWTH,
        stop_when_high_below=0.0,
    )
    proven: List[np.ndarray] = []

    def try_certificate(point: np.ndarray) -> bool:
        # Only a certificate that proves ends the metastep.
        q = _active_certificate(system, point, eps, tol)
        if q is not None and float(system.offsets @ q) > tol:
            proven.append(q)
            return True
        return False

    x = np.zeros(system.n)
    report: Optional[MetastepResult] = None
    for _ in range(cfg.max_metasteps):
        # An attribute lookup, so that benchmark/tracing.py sees the call.
        step = solver.bisect_level(system, x, cfg, trace=trace, hook=try_certificate)
        report = step if report is None else join(report, step)
        # A hook proof comes with lb > 0, so f < 0 and a proof exclude each other.
        if step.best_value < 0.0:
            return FeasibilityDecision(FeasibilityVerdict.FEASIBLE, None, math.inf, report)
        cert = proven[0] if proven else _active_certificate(system, step.best_point, eps, tol)
        if cert is not None:
            break
        x = step.best_point
        cfg = replace(cfg, radius=cfg.radius * cfg.radius_growth)
    else:
        return FeasibilityDecision(FeasibilityVerdict.UNDECIDED, None, math.inf, report)
    verdict = (
        FeasibilityVerdict.INFEASIBLE_NON_STRICT
        if float(system.offsets @ cert) > tol
        else FeasibilityVerdict.INFEASIBLE_STRICT_ONLY
    )
    d_star = float(np.sum((system.rows.T @ cert) ** 2))
    return FeasibilityDecision(verdict, cert, d_star, report)


def _active_certificate(
    system: LinearSystem, x: np.ndarray, window: float, tol: float
) -> Optional[np.ndarray]:
    """Farkas multipliers from the rows active at x, or None.

    By LP duality, min_x f(x) = max{b.q : q >= 0, sum q = 1, A^T q = 0},
    and the maximizing q lives on the rows active at a minimizer, where
    every such q has b.q = min f.  The first q of _window_multipliers
    that passes validate_certificate on the whole system is returned.
    Failing that, the first q that passes its sign and residual checks
    with |b.q| <= tol is returned, and None when no window gives one.
    So b.q > tol holds exactly when q passes validate_certificate: the
    decision run's hook keeps only such a q, its last try either kind.
    """
    fallback = None
    for q in _window_multipliers(system, x, window):
        # validate_certificate's two checks, each made once.
        if not _farkas_residual_ok(system, q, tol):
            continue
        bq = float(system.offsets @ q)
        if bq > tol:
            return q
        if fallback is None and bq >= -tol:
            fallback = q
    return fallback


def _window_multipliers(system: LinearSystem, x: np.ndarray, window: float):
    """Yield simplex multipliers of least ||A^T q|| on the rows within
    ``window`` of f(x), for windows widening tenfold until they hold
    every row; a widening that adds no row yields nothing new.

    The rows are sorted by their gap to f(x) once, so each window is a
    prefix of that order, and its nnls problem is the last one's with
    columns appended (one power-of-two scale, simplex_system's, for the
    whole system).  Each solve is warm-started from the last window's
    raw nnls solution padded with zeros: that solution is optimal on the
    old columns, so only the new ones can enter.
    """
    values = system.rows.dot(x) + system.offsets
    gaps = float(np.max(values)) - values
    order = np.argsort(gaps, kind="stable")
    sorted_gaps = gaps[order]
    matrix, target = simplex_system(system.rows[order])
    raw = np.zeros(0)
    while raw.size < system.m:
        count = int(np.searchsorted(sorted_gaps, window, side="right"))
        window *= 10.0
        if count == raw.size:
            continue
        start = np.zeros(count)
        start[: raw.size] = raw
        raw = nnls(matrix[:, :count], target, start)
        q = np.zeros(system.m)
        q[order[:count]] = raw / float(raw.sum())
        yield q


def _farkas_residual_ok(system: LinearSystem, q: np.ndarray, tol: float) -> bool:
    """q >= 0 and A^T q = 0, up to tol."""
    if float(np.min(q)) < -tol:
        return False
    return float(np.linalg.norm(system.rows.T @ q)) <= tol * (1.0 + float(np.linalg.norm(q)))


def validate_certificate(system: LinearSystem, q, tol: float = 1e-7) -> bool:
    """Independent Farkas check: q >= 0, A^T q = 0, B.q > 0, up to tol."""
    q = np.asarray(q, dtype=float).ravel()
    if q.shape[0] != system.m:
        raise DimensionMismatch("certificate length does not match row count")
    return _farkas_residual_ok(system, q, tol) and float(system.offsets @ q) > tol


def _hull_floor(points: np.ndarray) -> float:
    """A lower bound on the distance from 0 to conv(points), tight at
    the minimum-norm point.

    min_norm_weights gives the weights L of the minimum-norm point
    p = points^T L.  Every y in the hull has
    ||y|| >= y . p / ||p|| >= min_k points_k . p / ||p||, so
    max(min_k points_k . p, 0) / ||p|| is a lower bound whatever L is,
    and it equals ||p|| when L is optimal (then points_k . p >= ||p||^2
    for every k).  0 when p is 0.  p is first scaled by the power of two
    that brings its largest entry into [1/2, 1), which changes no bit of
    the bound and keeps ||p|| and points . p in range.
    """
    p = points.T @ min_norm_weights(points)
    p = np.ldexp(p, -math.frexp(float(np.max(np.abs(p))))[1])
    norm = float(np.linalg.norm(p))
    if norm == 0.0:
        return 0.0
    return max(float(np.min(points @ p)), 0.0) / norm


def subgradient_lower_bound_at(system: LinearSystem, x) -> float:
    """Norm floor for every subgradient of the row-max function at x.

    The floor is min ||A^T L|| over multipliers L in the simplex whose
    response L . v, v = A x + b, is nonnegative; requires f(x) >= 0.
    Those L form the convex hull of e_k for each v_k >= 0 and of
    (-v_j e_i + v_i e_j) / (v_i - v_j) for each pair v_i > 0 > v_j, so
    the floor is the distance from 0 to the hull of their images under
    A^T, which _hull_floor bounds from below.
    """
    x = np.asarray(x, dtype=float)
    v = system.rows @ x + system.offsets
    fx = float(np.max(v))
    if fx < 0.0:
        raise PreconditionViolated(f"row-max value {fx} is negative at x")
    pos, neg = v > 0.0, v < 0.0
    vi, vj = v[pos][:, None, None], v[neg][None, :, None]
    pairs = (-vj * system.rows[pos][:, None, :] + vi * system.rows[neg][None, :, :]) / (vi - vj)
    points = np.vstack([system.rows[v >= 0.0], pairs.reshape(-1, system.n)])
    return _hull_floor(points)


def _radius_from_floor(m: int, d_lower: float) -> float:
    return math.sqrt(m) * math.sqrt((d_lower * d_lower + 1.0) / (d_lower * d_lower))


def global_radius(system: LinearSystem, tol: float = 1e-7) -> RadiusBound:
    """Search radius from the global subgradient-norm floor (GlobalC).

    The floor d_lower bounds min ||A^T L|| over the simplex from below:
    the distance from 0 to the hull of the rows (see _hull_floor).  A
    squared floor above tol bounds every subgradient norm from below,
    and so the distance to the nearest feasible point of a strictly
    feasible system.  At or below tol there is no global floor and
    PreconditionViolated is raised; that says nothing about whether the
    system is feasible.
    """
    d_lower = _hull_floor(system.rows)
    c_low = d_lower * d_lower
    if not c_low > tol:
        raise PreconditionViolated(
            f"simplex floor {c_low:.3e} is at most tol; no global floor"
        )
    return RadiusBound(d_lower, _radius_from_floor(system.m, d_lower))


def find_feasible_point(
    system: LinearSystem,
    feas_tol: float = 1e-7,
    *,
    trace: bool = False,
) -> PointSearchResult:
    """Search for x with max_k (A_k . x + b_k) <= feas_tol from the origin.

    A feasible origin is returned at once, with radius_used 0.  Otherwise
    this is decide_feasibility's run (with tol feas_tol) read as a point:
    a best value at most feas_tol is a feasible point, an
    InfeasibleNonStrict verdict proves infeasibility with its
    certificate, and anything else is undecided.  radius_used is the
    radius of the last metastep's ball.  ``trace`` records a per-cut
    trace in the metastep report.  Raises ValueError unless feas_tol > 0.
    """
    if not feas_tol > 0.0:
        raise ValueError("tolerance must be positive")
    x0 = np.zeros(system.n)
    f0 = system.violation(x0)
    if f0 <= feas_tol:
        return PointSearchResult(x0, f0, PointSearchOutcome.FEASIBLE_POINT_FOUND, None, 0.0)

    decision = decide_feasibility(system, feas_tol, trace=trace)
    res, cert = decision.report, None
    if res.best_value <= feas_tol:
        outcome = PointSearchOutcome.FEASIBLE_POINT_FOUND
    elif decision.verdict is FeasibilityVerdict.INFEASIBLE_NON_STRICT:
        outcome, cert = PointSearchOutcome.INFEASIBLE_PROVEN, decision.certificate
    else:
        outcome = PointSearchOutcome.UNDECIDED
    return PointSearchResult(
        res.best_point, res.best_value, outcome, res, res.config.radius, cert
    )
