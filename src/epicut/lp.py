"""Linear inequality systems A x + b <= 0: normalization, feasibility
decision with Farkas certificates, subgradient floors, search radii,
and feasible-point search.

A LinearSystem is also the max-affine function
f(x) = max_k (A_k . x + b_k), which is <= 0 exactly on its feasible
set.  normalize keeps one row per input row, so certificates line up
with the caller's rows, and scales each, constant ones included, by one
division.  The decision and the point search share one front door,
_farkas_least_squares: it checks the tolerance and solves Farkas'
alternative as one nnls, whose certificate decides an infeasible system
without a run; otherwise it gives the feasible point nearest the
origin, the start, and f there, evaluated once.  The decision then
tries two points with no run: the start, then Gordan's point from one
minimum-norm solve (_strict_point); an evaluated, finite f < 0 at
either is Feasible with that point and that f.  Failing both, one
run_metasteps run minimizes f from the start.  All of this after the
nnls is _decide_from.  The point search takes the start when f <= tol
there, on the boundary up to rounding and not necessarily below 0; any
other start goes on to _decide_from, read as a point.
The two floors (subgradient_lower_bound_at and global_radius) are
distances from 0 to a convex hull of row combinations, Wolfe's
minimum-norm-point problem; the NNLS kernel that finds the
certificates solves it, and each floor reports the weak-duality lower
bound of that solution (see _hull_floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, PreconditionViolated
from .nnls import min_norm_weights, nnls, simplex_system
from .oracles import MaxAffineFunction
from .solver import MetastepConfig, MetastepResult, run_metasteps

# Rows whose coefficient norm is below this once normalize has scaled
# their largest entry into [1/2, 1) are treated as constant rows.
_ZERO_ROW = 1e-150

# Gordan's point p_x / p_b is formed only when no entry exceeds this, so
# that the quotient and the rows' values there stay finite.
_MAX_ENTRY = 1e150


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
        return self.eval(x)


def normalize(system: LinearSystem) -> LinearSystem:
    """Scale each row so ||(A_k, b_k)|| = 1, keeping one row per input row.

    Each row is first scaled by the power of two that brings its largest
    entry into [1/2, 1), which is exact and keeps its norm in range, so
    the result does not depend on the row's scale.  A constant row (a
    coefficient norm below _ZERO_ROW after that scaling) becomes
    (0, sign b_k), scaled by exactly 1: vacuous for b_k < 0, 0 <= 0 for
    b_k = 0, which no point satisfies strictly, and unsatisfiable for
    b_k > 0.  The decision needs no case of its own for them: a system
    of vacuous rows has f = -1 at the pre-step's start, the origin; a
    0 . x + 0 row leaves f >= 0 everywhere and is its own Gordan vector;
    and a (0, 1) row is a Farkas certificate by itself.
    """
    top = np.maximum(np.abs(system.rows).max(axis=1), np.abs(system.offsets))
    shift = -np.frexp(top)[1]
    rows = np.ldexp(system.rows, shift[:, None])
    offsets = np.ldexp(system.offsets, shift)
    # Each row's norm from its own dot product: the bits of a per-row
    # np.linalg.norm, which einsum and norm(axis=1) do not keep.
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    scale = np.sqrt(norms * norms + offsets * offsets)
    constant = norms < _ZERO_ROW
    rows[constant], offsets[constant], scale[constant] = 0.0, np.sign(offsets[constant]), 1.0
    rows /= scale[:, None]
    offsets /= scale
    return LinearSystem(rows, offsets)


class FeasibilityVerdict(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE_NON_STRICT = "InfeasibleNonStrict"
    INFEASIBLE_STRICT_ONLY = "InfeasibleStrictOnly"
    # Neither f < 0 nor a certificate after the run.
    UNDECIDED = "Undecided"


@dataclass
class FeasibilityDecision:
    verdict: FeasibilityVerdict
    certificate: Optional[np.ndarray]
    d_star: float  # ||A^T q||^2 of the certificate; +inf without one
    report: Optional[MetastepResult] = None  # the primal run; None without one
    # Always None; kept because benchmark/run.py --check-fidelity reads it.
    phase_one: Optional[MetastepResult] = None
    # The evaluated x with f(x) < 0 behind Feasible, and that f(x); None
    # for any other verdict.
    point: Optional[np.ndarray] = None
    value: Optional[float] = None


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
    f_value: Optional[float]
    outcome: PointSearchOutcome
    metastep_report: Optional[MetastepResult]
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
    f(x) = max_k (A_k . x + b_k) in R^n: the pre-step
    _farkas_least_squares, then _decide_from on its certificate, or its
    start and f there.  ``trace`` records per-cut traces in the report
    (see solver.bisect_level).  Raises ValueError, from the pre-step,
    unless 0 < tol < inf.
    """
    return _decide_from(system, tol, *_farkas_least_squares(system, tol), trace)


def _strict_point(system: LinearSystem) -> Optional[Tuple[np.ndarray, float]]:
    """Gordan's point: an x with an evaluated, finite f(x) < 0, and that
    f(x); or None.

    Gordan's alternative (P. Gordan, Math. Ann. 6, 1873), solved as
    Wolfe's nearest point of a polytope (P. Wolfe, Math. Prog. 11,
    1976): w = min_norm_weights of the m + 1 points (A_k, b_k) and
    (0, -1) of R^{n+1}, the rows of M, and p = M^T w.  Wolfe's
    optimality condition M_k . p >= ||p||^2 gives p_{n+1} <= -||p||^2 < 0
    for p != 0, and then x = p_x / p_{n+1} has
    A x + b <= -||p||^2 / |p_{n+1}| < 0.  Rounding can break that, so x
    counts only on an evaluated f(x) < 0.  p = 0 makes w a Gordan
    vector, but it is not read as a verdict here: one within tol exists
    whenever the system is within tol of losing its interior, where the
    run still finds f < 0.  A normalized 0 . x + 0 <= 0 row is the point
    0 itself, so p = 0 up to rounding, and that row reads 0 at every x:
    no Gordan point.
    """
    n = system.n
    points = np.zeros((system.m + 1, n + 1))
    points[:-1, :n] = system.rows
    points[:-1, n] = system.offsets
    points[-1, n] = -1.0
    p = points.T @ min_norm_weights(points)
    p_x, p_b = p[:n], float(p[n])
    # On a normalized system every point has norm at most 1, so
    # ||p|| <= 1 and the bound itself stays in range.
    if not float(np.max(np.abs(p_x))) < -p_b * _MAX_ENTRY:
        return None
    x = p_x / p_b
    value = system.violation(x)
    return (x, value) if -math.inf < value < 0.0 else None


def _decide_from(
    system: LinearSystem,
    tol: float,
    cert: Optional[np.ndarray],
    start: Optional[np.ndarray],
    f_start: Optional[float],
    trace: bool,
) -> FeasibilityDecision:
    """The decision after the pre-step, from its (certificate, start,
    f_start).

    A certificate gives InfeasibleNonStrict with no run (report None).
    Otherwise the start (the feasible point nearest the origin) is
    Feasible with no run when its evaluated f_start is finite and below
    0, and else Gordan's point (_strict_point) is, when it gives one;
    no further solve is spent where the start already decides.  Failing
    both, one run_metasteps run (the report) minimizes f with
    eps = min(tol/10, 1e-8), at most _PRIMAL_METASTEPS metasteps growing
    by _PRIMAL_GROWTH, the first over the ball of radius _PRIMAL_RADIUS
    around the start.  Its stop value is 0: the run ends at the first
    evaluated x with f(x) < 0, a strictly feasible point: Feasible, with
    the run's best point.  So Feasible always rests on an evaluated
    f < 0 at ``point``, and ``value`` is that f.  A run that ends
    otherwise gets one _active_certificate try at its incumbent.  A q
    with b.q > tol gives InfeasibleNonStrict, one with |b.q| <= tol
    InfeasibleStrictOnly, and no q Undecided.
    """
    report: Optional[MetastepResult] = None
    if cert is None:
        found = (start, f_start) if -math.inf < f_start < 0.0 else _strict_point(system)
        if found is not None:
            return FeasibilityDecision(FeasibilityVerdict.FEASIBLE, None, math.inf,
                                       point=found[0], value=found[1])
        eps = min(tol / 10.0, 1e-8)
        # stop_when_high_below is strict: f(x) = 0 proves nothing.
        cfg = MetastepConfig(
            radius=_PRIMAL_RADIUS,
            level_tolerance=eps,
            max_metasteps=_PRIMAL_METASTEPS,
            radius_growth=_PRIMAL_GROWTH,
            stop_when_high_below=0.0,
        )
        report = run_metasteps(system, start, cfg, trace=trace)
        if report.best_value < 0.0:
            return FeasibilityDecision(FeasibilityVerdict.FEASIBLE, None, math.inf, report,
                                       point=report.best_point, value=report.best_value)
        cert = _active_certificate(system, report.best_point, eps, tol)
    if cert is None:
        return FeasibilityDecision(FeasibilityVerdict.UNDECIDED, None, math.inf, report)
    verdict = (
        FeasibilityVerdict.INFEASIBLE_NON_STRICT
        if float(system.offsets @ cert) > tol
        else FeasibilityVerdict.INFEASIBLE_STRICT_ONLY
    )
    d_star = float(np.sum((system.rows.T @ cert) ** 2))
    return FeasibilityDecision(verdict, cert, d_star, report)


def _farkas_least_squares(
    system: LinearSystem, tol: float
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[float]]:
    """A certificate, or else the decision run's start and f there, from
    one nnls: the front door of decide_feasibility and
    find_feasible_point, which raises ValueError unless 0 < tol < inf.

    Farkas' alternative in least-squares form (A. Dax, "An elementary
    proof of Farkas' lemma", SIAM Review 39, 1997): q >= 0 minimizing
    ||M q - t|| for M = [A^T; b^T] and t = e_{n+1}.  The residual
    r = t - M q is 0 exactly when A^T q = 0 and b.q = 1.  Otherwise the
    KKT conditions give r_b = ||r||^2 > 0 and A r_x + b r_b <= 0: r is
    the projection of t onto the cone {y : A y_x + b y_b <= 0}, so
    r_x / r_b is the feasible point nearest the origin.

    Returns (q / sum q, None, None) when that passes
    validate_certificate, else (None, start, f(start)) for the start
    r_x / r_b, or the origin for r_b <= 0; f(start) is its one
    evaluation.  The check needs ||r_x|| = ||A^T q|| <= 2 tol sum q, so
    it is skipped at twice that: skipping can only pass the decision on
    to the run.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    n = system.n
    matrix = np.empty((n + 1, system.m))
    matrix[:n] = system.rows.T
    matrix[n] = system.offsets
    target = np.zeros(n + 1)
    target[n] = 1.0
    q = nnls(matrix, target)
    residual = target - matrix.dot(q)
    r_x, r_b = residual[:n], float(residual[n])
    total = float(q.sum())
    # Strict, so that q = 0 (r_x = 0) is never rescaled.
    if math.sqrt(r_x.dot(r_x)) < 4.0 * tol * total:
        cert = q / total
        if validate_certificate(system, cert, tol):
            return cert, None, None
    start = r_x / r_b if r_b > 0.0 else np.zeros(n)
    return None, start, system.violation(start)


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
    So b.q > tol holds exactly when q passes validate_certificate.
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
    prefix of that order, and its nnls problem is a column prefix of one
    matrix (one power-of-two scale, simplex_system's, for the whole
    system).  Each window is solved cold: a window with no more rows
    than the dimension plus one is one Gram solve when its solution is
    positive (see nnls).
    """
    values = system._values(x)
    gaps = float(np.max(values)) - values
    order = np.argsort(gaps, kind="stable")
    sorted_gaps = gaps[order]
    matrix, target = simplex_system(system.rows[order])
    solved = 0
    while solved < system.m:
        count = int(np.searchsorted(sorted_gaps, window, side="right"))
        window *= 10.0
        if count == solved:
            continue
        solved = count
        raw = nnls(matrix[:, :count], target)
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
    v = system._values(x)
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
    """Search for x with max_k (A_k . x + b_k) <= feas_tol.

    decide_feasibility's pre-step (_farkas_least_squares, with tol
    feas_tol) is solved once.  Without a certificate, its start, the
    feasible point nearest the origin up to rounding (the origin itself
    when that is feasible), is returned with the pre-step's f there
    when that is at most feas_tol: it may lie on the boundary, with
    f = 0 up to rounding rather than f < 0.  Otherwise
    decide_feasibility's decision after the pre-step (_decide_from) is
    read as a point.  With no run (metastep_report None), a Feasible
    point is found, with the f the decision accepted it on, and a
    certificate is InfeasibleProven with point and f_value None.  After
    its run, a best value at most feas_tol is a feasible point, an
    InfeasibleNonStrict verdict proves infeasibility with its
    certificate, and anything else is undecided, each with the run's
    best point.  ``trace`` records a per-cut trace in the metastep
    report.  Raises ValueError, from the pre-step, unless
    0 < feas_tol < inf.
    """
    cert, start, f_start = _farkas_least_squares(system, feas_tol)
    if cert is None and f_start <= feas_tol:
        return PointSearchResult(start, f_start, PointSearchOutcome.FEASIBLE_POINT_FOUND, None)
    decision = _decide_from(system, feas_tol, cert, start, f_start, trace)
    res = decision.report
    if res is None:
        if decision.verdict is FeasibilityVerdict.FEASIBLE:
            return PointSearchResult(decision.point, decision.value,
                                     PointSearchOutcome.FEASIBLE_POINT_FOUND, None)
        return PointSearchResult(None, None, PointSearchOutcome.INFEASIBLE_PROVEN, None,
                                 decision.certificate)
    cert = None
    if res.best_value <= feas_tol:
        outcome = PointSearchOutcome.FEASIBLE_POINT_FOUND
    elif decision.verdict is FeasibilityVerdict.INFEASIBLE_NON_STRICT:
        outcome, cert = PointSearchOutcome.INFEASIBLE_PROVEN, decision.certificate
    else:
        outcome = PointSearchOutcome.UNDECIDED
    return PointSearchResult(res.best_point, res.best_value, outcome, res, cert)
