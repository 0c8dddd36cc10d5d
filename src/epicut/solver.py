"""Ball-restricted convex minimization by one ellipsoid run per metastep.

A metastep minimizes f over the ball B(x0, R) intersected with optional
linear side constraints C.  It runs the ellipsoid method in R^n from
the ball itself and keeps a proven bracket [lb, U] on the minimum:

- a center outside the ball gets a ball cut, and a center that breaks
  a side constraint (beyond ``constraint_tolerance``) gets a cut on its
  most violated row; the more violated of the two wins;
- any other center c is evaluated: f(c) updates the incumbent U, and
  with a subgradient g the deep objective cut g.(x - c) + f(c) - U <= 0
  follows.

Every cut keeps all of {x in B and C : f(x) <= U}, so the minimizer
stays inside the ellipsoid E with factor J, and there
f >= f(c) - ||J^T g||.  Each objective cut therefore raises
lb to max(lb, min(U, f(c) - ||J^T g||)), where ||J^T g|| is the width
the cut kernel returns for E before the cut.  An empty intersection
proves the set empty: lb becomes U (+inf with no incumbent yet).

The run stops once U - lb <= eps, once U drops below
``stop_when_high_below``, at ``iteration_budget(n)`` iterations, or when
the caller's hook asks it to (see bisect_level).  A
closed bracket whose incumbent lies strictly inside the ball (by 10 eps)
certifies the global minimum; one on the sphere triggers another
metastep around it when budget remains.  A closed bracket with no
incumbent proves the feasible part of the ball empty (LevelSetEmpty).  Any other stop proves
only the bracket it reports (BudgetExhausted): lb is still a lower bound
on the minimum over the ball, which is the proof of how far from the
optimum the run stopped.

Per-cut TraceRecords are built only when a trace is requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import DegenerateShape
# deep_cut and intersects_halfspace are not called here; they stay
# importable as solver.deep_cut and solver.intersects_halfspace, names
# benchmark/tracing.py wraps.
from .geometry import (  # noqa: F401
    CutKind,
    Ellipsoid,
    cut_in_place,
    deep_cut,
    intersects_halfspace,
)
from .oracles import ConvexOracle, LinearConstraintSet


class SolveStatus(Enum):
    GLOBAL_OPTIMUM_CERTIFIED = "GlobalOptimumCertified"
    BOUNDARY_REACHED = "BoundaryReached"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    # No incumbent, and a cut proved the feasible part of the ball empty.
    LEVEL_SET_EMPTY = "LevelSetEmpty"


@dataclass
class TraceRecord:
    query: int                # 1-based metastep counter within the solve
    iteration: int            # 1-based ellipsoid iteration within the metastep
    center: np.ndarray        # center before the cut
    value: Optional[float]    # f at the center; None unless the cut is "objective"
    cut: str                  # "objective" | "ball" | "constraint"
    depth: float              # raw slack passed to the cut
    log_volume: float         # log volume ratio after the cut, against the ball


@dataclass(frozen=True)
class MetastepConfig:
    radius: float
    level_tolerance: float = 1e-6
    max_metasteps: int = 16
    radius_growth: float = 1.0
    # Known lower bound on f; starts the bracket's lower end when given.
    value_floor: Optional[float] = None
    # Normalized slack allowed when testing side constraints at a point.
    constraint_tolerance: float = 1e-9
    # Stop the whole solve once the incumbent value is strictly below this.
    stop_when_high_below: Optional[float] = None

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not 0.0 < self.level_tolerance < self.radius:
            raise ValueError("level_tolerance must lie in (0, radius)")
        if self.max_metasteps < 1:
            raise ValueError("max_metasteps must be >= 1")
        if self.radius_growth < 1.0:
            raise ValueError("radius_growth must be >= 1")

    def iteration_budget(self, d: int) -> int:
        """Per-metastep iteration cap in R^d, 2(d+1)(d+2) log(R/eps)."""
        return max(
            1,
            math.ceil(2.0 * (d + 1) * (d + 2) * math.log(self.radius / self.level_tolerance)),
        )


@dataclass
class MetastepResult:
    best_point: Optional[np.ndarray]
    best_value: float
    status: SolveStatus
    iterations: int
    level_queries: int
    alpha_bracket: Tuple[float, float]  # proven (lower bound, incumbent value)
    trace: List[TraceRecord]
    query_iterations: List[int]
    config: MetastepConfig


def bisect_level(
    f: ConvexOracle,
    x0,
    cfg: MetastepConfig,
    extra: Optional[LinearConstraintSet] = None,
    *,
    trace: bool = False,
    hook: Optional[Callable[[np.ndarray], bool]] = None,
    _query_start: int = 0,
) -> MetastepResult:
    """One metastep: a single ellipsoid run over the ball around x0.

    Counts as one level query.  With ``trace`` the result carries one
    TraceRecord per cut; without it ``trace`` is empty.  Tracing changes
    nothing else.

    ``hook``, when given, is called with the incumbent every 4(d+1)
    iterations while the proven lower bound is above 0, that is while
    the ball is proven to hold no point with f <= 0.  A True return ends
    the run with its bracket still open and proven: BudgetExhausted.
    Without a hook the run is the same as with one that always returns
    False.
    """
    x0 = np.array(x0, dtype=float, copy=True)
    radius = cfg.radius
    eps = cfg.level_tolerance
    tolerance = cfg.constraint_tolerance
    high_below = cfg.stop_when_high_below
    budget = cfg.iteration_budget(x0.shape[0])
    period = 4 * (x0.shape[0] + 1)
    query = _query_start + 1
    records: List[TraceRecord] = []

    e = Ellipsoid.ball(x0, radius)
    best_point: Optional[np.ndarray] = None
    upper = math.inf
    lower = -math.inf if cfg.value_floor is None else float(cfg.value_floor)
    iters = 0
    while iters < budget:
        iters += 1
        # cut_in_place replaces e.center, so ``center`` keeps the pre-cut
        # point for the incumbent and the trace.
        center = e.center
        du = center - x0
        dist = math.sqrt(float(du @ du))
        if extra is None:
            viol, row = -math.inf, -1
        else:
            viol, row = extra.normalized_max_violation(center)
        value = None
        if dist > radius and dist - radius >= viol:
            kind, normal, slack = "ball", du, dist * (dist - radius)
        elif viol > tolerance:
            normal = extra.rows[row]
            kind, slack = "constraint", float(normal @ center + extra.offsets[row])
        else:
            value, normal = f.value_and_subgradient(center)
            value = float(value)
            if value < upper:
                upper, best_point = value, center
            kind, slack = "objective", value - upper

        outcome, _, width = cut_in_place(e, normal, slack)
        # Only a zero normal (width 0) leaves E as it is from slack >= 0.
        if outcome is CutKind.NO_CUT and width > 0.0:
            raise DegenerateShape("cut produced no update from nonnegative slack")
        if kind == "objective":
            # The minimizer lies in the ellipsoid, where f >= value - width.
            # An empty intersection has value - width >= upper, and a zero
            # subgradient (width 0) makes the center a global minimizer.
            lower = max(lower, min(upper, value - width))
        elif outcome is CutKind.EMPTY_INTERSECTION:
            # No point of the ball and the side constraints lies
            # below the incumbent, or none at all without one.
            lower = upper
        if trace and outcome is CutKind.UPDATED:
            records.append(
                TraceRecord(query, iters, center, value, kind, slack, e.log_volume_ratio)
            )
        if lower >= upper - eps or (high_below is not None and upper < high_below):
            break
        if (hook is not None and lower > 0.0 and iters % period == 0
                and best_point is not None and hook(best_point)):
            break

    if lower < upper - eps:
        status = SolveStatus.BUDGET_EXHAUSTED
    elif best_point is None:
        status = SolveStatus.LEVEL_SET_EMPTY
    elif float(np.linalg.norm(best_point - x0)) < radius - 10.0 * eps:
        status = SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
    else:
        status = SolveStatus.BOUNDARY_REACHED
    return MetastepResult(
        best_point=best_point,
        best_value=upper,
        status=status,
        iterations=iters,
        level_queries=1,
        alpha_bracket=(lower, upper),
        trace=records,
        query_iterations=[iters],
        config=cfg,
    )


def run_metasteps(
    f: ConvexOracle,
    x0,
    cfg: MetastepConfig,
    extra: Optional[LinearConstraintSet] = None,
    *,
    trace: bool = False,
    hook: Optional[Callable[[np.ndarray], bool]] = None,
) -> MetastepResult:
    """Repeat metasteps, recentering at each boundary incumbent.

    Stops on any status but BOUNDARY_REACHED, or when a recentred
    metastep fails to strictly improve; the result carries the
    last metastep's outcome with counters and trace aggregated over all
    of them.  ``trace`` and ``hook`` are passed to each metastep (see
    bisect_level); a run the hook ends reports BudgetExhausted, so no
    further metastep follows it.
    """
    x = np.array(x0, dtype=float, copy=True)
    radius = cfg.radius
    records: List[TraceRecord] = []
    query_iterations: List[int] = []
    total_queries = 0
    previous: Optional[MetastepResult] = None
    result = None
    for _ in range(cfg.max_metasteps):
        step_cfg = cfg if radius == cfg.radius else replace(cfg, radius=radius)
        result = bisect_level(
            f, x, step_cfg, extra, trace=trace, hook=hook, _query_start=total_queries
        )
        records.extend(result.trace)
        query_iterations.extend(result.query_iterations)
        total_queries += result.level_queries
        if result.status is not SolveStatus.BOUNDARY_REACHED:
            break
        if previous is not None and result.best_value >= previous.best_value:
            break
        previous = result
        x = np.array(result.best_point, copy=True)
        radius *= cfg.radius_growth
    return replace(
        result,
        iterations=sum(query_iterations),
        level_queries=total_queries,
        trace=records,
        query_iterations=query_iterations,
    )
