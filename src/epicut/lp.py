"""Linear inequality systems A x + b <= 0: normalization, feasibility
decision with Farkas certificates, subgradient floor programs, search
radii, and feasible-point search.

Every inner program (the decision QP, the floor programs, the max-offset
program) is handed to the metastep solver with its constraints expressed
as a LinearConstraintSet; equalities are split into opposing inequality
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySystem,
    PreconditionViolated,
    SolverBudgetExceeded,
    StrictFeasibilityViolated,
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
    d_star: float  # decision-QP optimum; +inf when its constraint set is empty
    report: Optional[MetastepResult] = None
    phase_one: Optional[MetastepResult] = None


class RadiusMethod(Enum):
    GLOBAL_C = "GlobalC"
    EPSILON_SHIFT = "EpsilonShift"
    HALVING = "Halving"


@dataclass
class RadiusBound:
    d_lower: float
    radius: float
    method: RadiusMethod
    detail: Optional[float] = None  # epsilon shift or halving level


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


def _simplex_constraint_parts(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rows for {q >= 0, sum q = 1} with the equality split in two."""
    rows = np.vstack([-np.eye(m), np.ones((1, m)), -np.ones((1, m))])
    offsets = np.concatenate([np.zeros(m), [-1.0], [1.0]])
    return rows, offsets


def _lambda_config(value_floor: Optional[float]) -> MetastepConfig:
    # The multiplier programs all live inside the unit simplex; a lifted
    # ball of radius 2 around the simplex center covers them with slack.
    return MetastepConfig(
        radius=2.0,
        level_tolerance=1e-7,
        max_metasteps=2,
        value_floor=value_floor,
        constraint_tolerance=1e-8,
    )


def decide_feasibility(
    system: LinearSystem,
    tol: float = 1e-7,
    *,
    trace: bool = False,
) -> FeasibilityDecision:
    """Farkas-based feasibility decision for a normalized system.

    Minimizes ||A^T q||^2 over {q >= 0, B.q >= 0, 1 <= sum q <= 2}.  A
    minimum provably above tol means no certificate direction exists and
    the system is feasible; a vanishing minimum yields a certificate that
    is polished and classified by the sign of B.q.  An empty QP
    constraint set (detected by a max-violation phase run) is itself a
    feasibility proof.  ``trace`` records per-cut traces in both
    programs' results (see solver.bisect_level).
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

    radius = 2.0 * math.sqrt(m)
    eps = min(tol / 10.0, 1e-8)
    cons_rows = np.vstack(
        [-np.eye(m), -system.offsets[None, :], -np.ones((1, m)), np.ones((1, m))]
    )
    cons_offsets = np.concatenate([np.zeros(m), [0.0], [1.0], [-2.0]])
    cons = LinearConstraintSet(cons_rows, cons_offsets)

    phase_one = None
    if float(np.max(system.offsets)) < 0.0:
        # Only then can {B.q >= 0, sum q >= 1, q >= 0} be empty; prove or
        # refute it by minimizing the constraint violation itself.
        pcfg = MetastepConfig(
            radius=radius,
            level_tolerance=eps,
            max_metasteps=2,
            early_stop_value=0.0,
            stop_when_high_below=0.0,
            stop_when_low_above=tol,
        )
        phase_one = run_metasteps(cons.as_max_affine(), np.zeros(m), pcfg, trace=trace)
        set_nonempty = (
            phase_one.early_stopped
            or (phase_one.best_point is not None and phase_one.best_value <= tol)
        )
        if not set_nonempty:
            if phase_one.alpha_bracket[0] > tol:
                return FeasibilityDecision(
                    FeasibilityVerdict.FEASIBLE, None, math.inf, None, phase_one
                )
            raise SolverBudgetExceeded(
                "could not settle whether the decision QP has any feasible point"
            )

    gram = QuadraticForm(system.rows @ system.rows.T)
    mcfg = MetastepConfig(
        radius=radius,
        level_tolerance=eps,
        max_metasteps=2,
        value_floor=0.0,
        constraint_tolerance=1e-9,
        stop_when_high_below=0.5 * tol,
        stop_when_low_above=tol,
    )
    res = run_metasteps(gram, np.zeros(m), mcfg, extra=cons, trace=trace)
    if res.alpha_bracket[0] > tol:
        d_star = res.best_value if res.best_point is not None else math.inf
        return FeasibilityDecision(
            FeasibilityVerdict.FEASIBLE, None, float(d_star), res, phase_one
        )
    if res.best_point is None:
        raise SolverBudgetExceeded("decision QP returned no witness")
    d_star = float(res.best_value)
    cert = _polish_certificate(system, res.best_point)
    resid = float(np.linalg.norm(system.rows.T @ cert))
    if float(np.min(cert)) < -tol or resid > tol * (1.0 + float(np.linalg.norm(cert))):
        raise SolverBudgetExceeded(
            "certificate polishing failed near the decision boundary"
        )
    b_dot = float(system.offsets @ cert)
    verdict = (
        FeasibilityVerdict.INFEASIBLE_NON_STRICT
        if b_dot > tol
        else FeasibilityVerdict.INFEASIBLE_STRICT_ONLY
    )
    return FeasibilityDecision(verdict, cert, d_star, res, phase_one)


def _polish_certificate(system: LinearSystem, q: np.ndarray) -> np.ndarray:
    """Alternate projections onto {A^T q = 0} and {q >= 0}, then rescale.

    The solver's witness satisfies the null-space condition only to the
    level tolerance; the certificate contract is much tighter.
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


def validate_certificate(system: LinearSystem, q, tol: float = 1e-7) -> bool:
    """Independent Farkas check: q >= 0, A^T q = 0, B.q > 0, up to tol."""
    q = np.asarray(q, dtype=float).ravel()
    if q.shape[0] != system.m:
        raise DimensionMismatch("certificate length does not match row count")
    if float(np.min(q)) < -tol:
        return False
    if float(np.linalg.norm(system.rows.T @ q)) > tol * (1.0 + float(np.linalg.norm(q))):
        return False
    return float(system.offsets @ q) > tol


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


def global_radius(
    system: LinearSystem,
    eps_shift: Optional[float] = None,
    tol: float = 1e-7,
) -> RadiusBound:
    """Search radius from a global subgradient-norm floor.

    First tries the unconditional floor (gram minimum over the whole
    simplex).  When that collapses, falls back to the shifted program:
    certificate directions are excluded by bounding the offset response
    away from its maximum, which must be negative for a strictly
    feasible system.
    """
    if eps_shift is not None and not eps_shift > 0.0:
        raise ValueError("eps_shift must be positive")
    m = system.m
    gram = QuadraticForm(system.rows @ system.rows.T)
    srows, soffs = _simplex_constraint_parts(m)
    center = np.full(m, 1.0 / m)

    c_res = run_metasteps(
        gram, center, _lambda_config(value_floor=0.0),
        extra=LinearConstraintSet(srows, soffs),
    )
    _require_settled(c_res, "simplex floor program")
    c_low = max(float(c_res.best_value), 0.0)
    if c_low > tol:
        d_lower = math.sqrt(c_low)
        return RadiusBound(d_lower, _radius_from_floor(m, d_lower), RadiusMethod.GLOBAL_C)

    # Max offset response along near-null multiplier directions.  The
    # exact null-space set can be empty, so the equality is relaxed to
    # the band the floor witness is known to reach.
    band = math.sqrt(c_low) + 1e-9
    eq_rows = []
    eq_offsets = []
    for j in range(system.n):
        col = system.rows[:, j]
        eq_rows.extend([col, -col])
        eq_offsets.extend([-band, -band])
    b_rows = np.vstack([srows, np.array(eq_rows)])
    b_offsets = np.concatenate([soffs, np.array(eq_offsets)])
    b_res = run_metasteps(
        MaxAffineFunction(-system.offsets[None, :], [0.0]),
        c_res.best_point,
        _lambda_config(value_floor=-1.0 - 1e-9),
        extra=LinearConstraintSet(b_rows, b_offsets),
    )
    _require_settled(b_res, "offset maximum program")
    b_bar = -float(b_res.best_value)
    if b_bar >= -tol:
        raise StrictFeasibilityViolated(
            f"offset maximum {b_bar:.3e} is not negative; system is not strictly feasible"
        )
    shift = eps_shift if eps_shift is not None else max(1e-3 * abs(b_bar), 1e-9)

    a_rows = np.vstack([srows, -system.offsets[None, :]])
    a_offsets = np.concatenate([soffs, [shift - abs(b_bar)]])
    a_res = run_metasteps(
        gram, center, _lambda_config(value_floor=0.0),
        extra=LinearConstraintSet(a_rows, a_offsets),
    )
    if a_res.status is SolveStatus.LEVEL_SET_EMPTY:
        # No multiplier clears the shifted offset bar: bisection closed
        # the bracket at the top of the ball with every level empty (the
        # constraint set can be genuinely empty, e.g. when B.L is constant
        # over the simplex).  Then every multiplier active at an infeasible
        # x obeys B.L <= b_bar < 0, so L.(A x + B) >= 0 forces
        # ||A^T L|| >= |b_bar| / ||x||, making |b_bar| a unit-ball floor.
        d_lower = abs(b_bar)
    else:
        _require_settled(a_res, "shifted floor program")
        d_lower = max(math.sqrt(max(float(a_res.best_value), 0.0)), 1e-9)
    return RadiusBound(
        d_lower, _radius_from_floor(m, d_lower), RadiusMethod.EPSILON_SHIFT, shift
    )


def find_feasible_point(
    system: LinearSystem,
    bound: Union[RadiusBound, float, None] = None,
    feas_tol: float = 1e-7,
    level_tolerance: float = 1e-6,
    max_metasteps: int = 3,
    max_halvings: int = 40,
    *,
    trace: bool = False,
) -> PointSearchResult:
    """Search for x with max_k (A_k . x + b_k) <= feas_tol from the origin.

    With a radius bound the metastep solver runs once; without one the
    floor guess is halved (radius grows) until a point is found, the
    minimum is certified positive, or the halving budget runs out.
    ``trace`` records a per-cut trace in the metastep report.
    """
    f = MaxAffineFunction(system.rows, system.offsets)
    x0 = np.zeros(system.n)
    f0 = float(f.eval(x0))
    if f0 <= feas_tol:
        return PointSearchResult(x0, f0, PointSearchOutcome.FEASIBLE_POINT_FOUND, None)

    def attempt(radius: float) -> Tuple[MetastepResult, PointSearchOutcome]:
        cfg = MetastepConfig(
            radius=radius,
            level_tolerance=min(level_tolerance, radius / 2.0),
            max_metasteps=max_metasteps,
            early_stop_value=feas_tol,
        )
        res = run_metasteps(f, x0, cfg, trace=trace)
        if res.best_point is not None and res.best_value <= feas_tol:
            return res, PointSearchOutcome.FEASIBLE_POINT_FOUND
        if (
            res.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
            and res.best_value > feas_tol
        ):
            return res, PointSearchOutcome.INFEASIBLE_PROVEN
        return res, PointSearchOutcome.UNDECIDED

    if bound is not None:
        radius = bound.radius if isinstance(bound, RadiusBound) else float(bound)
        if not radius > 0.0:
            raise ValueError("search radius must be positive")
        res, outcome = attempt(radius)
        return PointSearchResult(res.best_point, res.best_value, outcome, res, radius)

    res = None
    radius = None
    for k in range(max_halvings + 1):
        e = 2.0 ** (-k)
        radius = _radius_from_floor(system.m, e)
        res, outcome = attempt(radius)
        if outcome is not PointSearchOutcome.UNDECIDED:
            return PointSearchResult(res.best_point, res.best_value, outcome, res, radius)
    return PointSearchResult(
        res.best_point if res is not None else None,
        res.best_value if res is not None else math.inf,
        PointSearchOutcome.UNDECIDED,
        res,
        radius,
    )
