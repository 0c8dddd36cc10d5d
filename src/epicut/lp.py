"""Linear inequality systems A x + b <= 0: normalization, feasibility
decision with Farkas certificates, subgradient floor programs, search
radii, and feasible-point search.

The decision and the point search run the same minimization of
f(x) = max_k (A_k . x + b_k) in R^n; an infeasible verdict rests on
multipliers of the rows active at the incumbent that pass
validate_certificate.  The floor programs run over the simplex in R^m,
with their constraints expressed as a LinearConstraintSet; equalities
are split into opposing inequality rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySystem,
    PreconditionViolated,
    SolverBudgetExceeded,
)
from .oracles import LinearConstraintSet, MaxAffineFunction, QuadraticForm
from .solver import (
    MetastepConfig,
    MetastepResult,
    SolveStatus,
    run_metasteps,
)

# Rows with coefficient norm below this are treated as constant rows.
_ZERO_ROW = 1e-150


class LinearSystem:
    """m inequality rows over R^n: rows[k] . x + offsets[k] <= 0."""

    __slots__ = ("rows", "offsets")

    def __init__(self, rows, offsets):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        offsets = np.asarray(offsets, dtype=float).ravel()
        if rows.shape[0] != offsets.shape[0] or rows.shape[0] == 0:
            raise DimensionMismatch("need one offset per row and at least one row")
        self.rows = rows
        self.offsets = offsets

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

    Constant rows (zero coefficients) are vacuous when their offset is
    nonpositive and are dropped; a constant row with positive offset is
    unsatisfiable and is kept as (0, 1) so the decision layer can emit
    the trivial certificate.  Raises EmptySystem when nothing is left
    (every point satisfies the original system).
    """
    kept_rows: List[np.ndarray] = []
    kept_offsets: List[float] = []
    for a, b in zip(system.rows, system.offsets):
        na = float(np.linalg.norm(a))
        if na < _ZERO_ROW:
            if b > 0.0:
                kept_rows.append(np.zeros(system.n))
                kept_offsets.append(1.0)
            continue
        s = math.sqrt(na * na + b * b)
        kept_rows.append(a / s)
        kept_offsets.append(b / s)
    if not kept_rows:
        raise EmptySystem("all rows vacuous; any point is feasible")
    return LinearSystem(np.array(kept_rows), np.array(kept_offsets))


class FeasibilityVerdict(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE_NON_STRICT = "InfeasibleNonStrict"
    INFEASIBLE_STRICT_ONLY = "InfeasibleStrictOnly"


@dataclass
class FeasibilityDecision:
    verdict: FeasibilityVerdict
    certificate: Optional[np.ndarray]
    d_star: float  # ||A^T q||^2 of the certificate; +inf without one
    report: Optional[MetastepResult] = None  # the primal run
    # Always None; kept because benchmark/run.py --check-fidelity reads it.
    phase_one: Optional[MetastepResult] = None


class RadiusMethod(Enum):
    GLOBAL_C = "GlobalC"


@dataclass
class RadiusBound:
    d_lower: float
    radius: float
    method: RadiusMethod


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


def _simplex_constraint_parts(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rows for {q >= 0, sum q = 1} with the equality split in two."""
    rows = np.vstack([-np.eye(m), np.ones((1, m)), -np.ones((1, m))])
    offsets = np.concatenate([np.zeros(m), [-1.0], [1.0]])
    return rows, offsets


def _lambda_config(value_floor: Optional[float]) -> MetastepConfig:
    # The multiplier programs all live inside the unit simplex; a ball of
    # radius 2 around the simplex center covers them with slack.
    return MetastepConfig(
        radius=2.0,
        level_tolerance=1e-7,
        max_metasteps=2,
        value_floor=value_floor,
        constraint_tolerance=1e-8,
    )


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
    """Feasibility decision for a normalized system by minimizing f in R^n.

    Any evaluated x with f(x) < 0 is a strictly feasible point.
    Otherwise the rows active at the incumbent give multipliers q (see
    _primal_run): b.q > tol gives InfeasibleNonStrict, |b.q| <= tol
    gives InfeasibleStrictOnly.  With neither after _PRIMAL_METASTEPS
    metasteps it raises SolverBudgetExceeded.  ``trace`` records per-cut
    traces in the report (see solver.bisect_level).
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    m = system.m
    for k in range(m):
        if float(np.linalg.norm(system.rows[k])) < _ZERO_ROW and system.offsets[k] > 0:
            cert = np.zeros(m)
            cert[k] = 1.0
            return FeasibilityDecision(
                FeasibilityVerdict.INFEASIBLE_NON_STRICT, cert, 0.0
            )

    report, cert = _primal_run(system, tol, trace)
    if cert is not None:
        verdict = (
            FeasibilityVerdict.INFEASIBLE_NON_STRICT
            if float(system.offsets @ cert) > tol
            else FeasibilityVerdict.INFEASIBLE_STRICT_ONLY
        )
        d_star = float(np.sum((system.rows.T @ cert) ** 2))
        return FeasibilityDecision(verdict, cert, d_star, report)
    if report.best_value < 0.0:
        return FeasibilityDecision(FeasibilityVerdict.FEASIBLE, None, math.inf, report)
    raise SolverBudgetExceeded(
        f"no point with f < 0 and no certificate after {_PRIMAL_METASTEPS} metasteps"
    )


def _primal_run(
    system: LinearSystem, tol: float, trace: bool
) -> Tuple[MetastepResult, Optional[np.ndarray]]:
    """Minimize f(x) = max_k (A_k . x + b_k) in R^n until f < 0 or a certificate.

    Runs the metastep minimizer from the origin in a ball of radius
    _PRIMAL_RADIUS, growing it _PRIMAL_GROWTH-fold around each boundary
    incumbent, with eps = min(tol/10, 1e-8).  The run stops at the first
    evaluated x with f(x) < 0.  Otherwise _active_certificate is tried at
    the incumbent; without one the run goes on from the incumbent in a
    larger ball, for at most _PRIMAL_METASTEPS metasteps in all.  Returns
    the joined report and the certificate, which is None when the run
    found f < 0 or used up its metasteps.
    """
    eps = min(tol / 10.0, 1e-8)
    f = MaxAffineFunction(system.rows, system.offsets)
    # stop_when_high_below is strict: f(x) = 0 proves nothing.
    cfg = MetastepConfig(
        radius=_PRIMAL_RADIUS,
        level_tolerance=eps,
        max_metasteps=_PRIMAL_METASTEPS,
        radius_growth=_PRIMAL_GROWTH,
        stop_when_high_below=0.0,
    )
    x = np.zeros(system.n)
    report: Optional[MetastepResult] = None
    while True:
        res = run_metasteps(f, x, cfg, trace=trace)
        report = res if report is None else _joined(report, res)
        if res.best_value < 0.0:
            return report, None
        cert = _active_certificate(system, res.best_point, eps, tol)
        left = _PRIMAL_METASTEPS - report.level_queries
        if cert is not None or left <= 0:
            return report, cert
        x = res.best_point
        cfg = replace(cfg, radius=res.config.radius * _PRIMAL_GROWTH, max_metasteps=left)


def _joined(first: MetastepResult, later: MetastepResult) -> MetastepResult:
    """One result for two consecutive runs: later's outcome, summed counters."""
    for rec in later.trace:
        rec.query += first.level_queries
    return replace(
        later,
        iterations=first.iterations + later.iterations,
        level_queries=first.level_queries + later.level_queries,
        trace=first.trace + later.trace,
        query_iterations=first.query_iterations + later.query_iterations,
        config=replace(later.config, max_metasteps=first.config.max_metasteps),
    )


def _active_certificate(
    system: LinearSystem, x: np.ndarray, window: float, tol: float
) -> Optional[np.ndarray]:
    """Farkas multipliers from the rows active at x, or None.

    By LP duality, min_x f(x) = max{b.q : q >= 0, sum q = 1, A^T q = 0},
    and the maximizing q lives on the rows active at a minimizer.  Rows
    within ``window`` of f(x) count as active; their multipliers are
    polished on the restricted system, and the window widens tenfold
    until q passes validate_certificate on the whole system.  Failing
    that, the first q that passes its sign and residual checks with
    |b.q| <= tol is returned, and None when no window gives one.  So b.q
    > tol holds exactly when q passes validate_certificate.
    """
    values = system.rows @ x + system.offsets
    gaps = float(np.max(values)) - values
    fallback = None
    seen = 0
    while seen < system.m:
        active = gaps <= window
        count = int(np.count_nonzero(active))
        window *= 10.0
        if count == seen:
            continue
        seen = count
        q = np.zeros(system.m)
        q[active] = _polish_certificate(
            LinearSystem(system.rows[active], system.offsets[active]), np.ones(count)
        )
        if validate_certificate(system, q, tol):
            return q
        if (
            fallback is None
            and _farkas_residual_ok(system, q, tol)
            and float(system.offsets @ q) >= -tol
        ):
            fallback = q
    return fallback


def _polish_certificate(system: LinearSystem, q: np.ndarray) -> np.ndarray:
    """Alternate projections onto {A^T q = 0} and {q >= 0}, then rescale.

    Started from q, this moves q toward the cone {q >= 0, A^T q = 0};
    nothing guarantees the result, so callers check it.
    """
    q = np.maximum(np.asarray(q, dtype=float).copy(), 0.0)
    u, s, _ = np.linalg.svd(system.rows, full_matrices=True)
    if s.size:
        rank = int(np.sum(s > s[0] * max(system.rows.shape) * np.finfo(float).eps))
    else:
        rank = 0
    basis = u[:, rank:]
    if basis.shape[1] == 0:
        total = float(q.sum())
        return q / total if total > 0.0 else q
    for _ in range(500):
        q = basis @ (basis.T @ q)
        q = np.maximum(q, 0.0)
        if float(np.linalg.norm(system.rows.T @ q)) <= 1e-13 * (
            1.0 + float(np.linalg.norm(q))
        ):
            break
    total = float(q.sum())
    if total > 0.0:
        q = q / total
    return q


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


def _require_settled(res: MetastepResult, program: str) -> None:
    """Raise unless the program's run proved its reported minimum.

    A budget-exhausted run leaves best_value only an upper bound, so
    nothing built on it as a floor would be proven; a run whose level set
    was proven empty has no minimum at all.
    """
    if res.status is SolveStatus.BUDGET_EXHAUSTED:
        raise SolverBudgetExceeded(f"{program} ran out of budget")
    if res.status is SolveStatus.LEVEL_SET_EMPTY:
        raise SolverBudgetExceeded(f"{program} has no feasible point in its search ball")


def subgradient_lower_bound_at(system: LinearSystem, x) -> float:
    """Norm floor for every subgradient of the row-max function at x.

    Minimizes ||A^T L||^2 over multipliers L in the simplex whose
    response L . (A x + B) is nonnegative; requires f(x) >= 0.
    """
    x = np.asarray(x, dtype=float)
    fx = system.violation(x)
    if fx < 0.0:
        raise PreconditionViolated(f"row-max value {fx} is negative at x")
    m = system.m
    srows, soffs = _simplex_constraint_parts(m)
    response = system.rows @ x + system.offsets
    rows = np.vstack([srows, -response[None, :]])
    offsets = np.concatenate([soffs, [0.0]])
    res = run_metasteps(
        QuadraticForm(system.rows @ system.rows.T),
        np.full(m, 1.0 / m),
        _lambda_config(value_floor=0.0),
        extra=LinearConstraintSet(rows, offsets),
    )
    _require_settled(res, "subgradient floor program")
    return math.sqrt(max(float(res.best_value), 0.0))


def _radius_from_floor(m: int, d_lower: float) -> float:
    return math.sqrt(m) * math.sqrt((d_lower * d_lower + 1.0) / (d_lower * d_lower))


def global_radius(system: LinearSystem, tol: float = 1e-7) -> RadiusBound:
    """Search radius from the global subgradient-norm floor (GlobalC).

    Minimizes the gram form ||A^T L||^2 over the simplex.  A floor above
    tol bounds every subgradient norm from below, and so the distance to
    the nearest feasible point of a strictly feasible system.  At or
    below tol there is no global floor and PreconditionViolated is
    raised; that says nothing about whether the system is feasible.
    """
    m = system.m
    srows, soffs = _simplex_constraint_parts(m)
    c_res = run_metasteps(
        QuadraticForm(system.rows @ system.rows.T),
        np.full(m, 1.0 / m),
        _lambda_config(value_floor=0.0),
        extra=LinearConstraintSet(srows, soffs),
    )
    _require_settled(c_res, "simplex floor program")
    c_low = max(float(c_res.best_value), 0.0)
    if not c_low > tol:
        raise PreconditionViolated(
            f"simplex floor {c_low:.3e} is at most tol; no global floor"
        )
    d_lower = math.sqrt(c_low)
    return RadiusBound(d_lower, _radius_from_floor(m, d_lower), RadiusMethod.GLOBAL_C)


def find_feasible_point(
    system: LinearSystem,
    bound: Union[RadiusBound, float, None] = None,
    feas_tol: float = 1e-7,
    level_tolerance: float = 1e-6,
    max_metasteps: int = 3,
    *,
    trace: bool = False,
) -> PointSearchResult:
    """Search for x with max_k (A_k . x + b_k) <= feas_tol from the origin.

    A feasible origin is returned at once, with radius_used 0.  With a
    radius bound the metastep solver runs once in that ball (eps
    level_tolerance, max_metasteps metasteps).  Without one it is the
    run behind decide_feasibility (see _primal_run, with tol feas_tol).
    A best value at most feas_tol is a feasible point.  Infeasibility is
    proven only by a certificate from the rows active at the incumbent
    that passes validate_certificate at feas_tol; the bounded run tries
    one only at a certified minimum.  Anything else is undecided.
    radius_used is the radius of the last metastep's ball.  ``trace``
    records a per-cut trace in the metastep report.
    """
    f = MaxAffineFunction(system.rows, system.offsets)
    x0 = np.zeros(system.n)
    f0 = float(f.eval(x0))
    if f0 <= feas_tol:
        return PointSearchResult(x0, f0, PointSearchOutcome.FEASIBLE_POINT_FOUND, None, 0.0)

    if bound is None:
        res, cert = _primal_run(system, feas_tol, trace)
    else:
        radius = bound.radius if isinstance(bound, RadiusBound) else float(bound)
        if not radius > 0.0:
            raise ValueError("search radius must be positive")
        eps = min(level_tolerance, radius / 2.0)
        cfg = MetastepConfig(
            radius=radius,
            level_tolerance=eps,
            max_metasteps=max_metasteps,
            early_stop_value=feas_tol,
        )
        res = run_metasteps(f, x0, cfg, trace=trace)
        cert = None
        if res.best_value > feas_tol and res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED:
            cert = _active_certificate(system, res.best_point, eps, feas_tol)
    if res.best_value <= feas_tol:
        outcome, cert = PointSearchOutcome.FEASIBLE_POINT_FOUND, None
    elif cert is not None and validate_certificate(system, cert, feas_tol):
        outcome = PointSearchOutcome.INFEASIBLE_PROVEN
    else:
        outcome, cert = PointSearchOutcome.UNDECIDED, None
    return PointSearchResult(
        res.best_point, res.best_value, outcome, res, res.config.radius, cert
    )
