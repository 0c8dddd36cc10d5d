"""Ball-restricted convex minimization by one ellipsoid run per metastep.

A metastep minimizes f over the ball B(x0, R).  It runs the ellipsoid
method in R^n from the ball itself and keeps a proven bracket [lb, U]
on the minimum:

- a center outside the ball gets a ball cut;
- any other center c is evaluated: f(c) updates the incumbent U, and
  with a subgradient g the deep objective cut g.(x - c) + f(c) - U <= 0
  follows.  A value that is not a finite number raises NonFiniteValue:
  no cut or bound can be built on it.

Every cut keeps all of {x in B : f(x) <= U}, so the minimizer stays
inside the ellipsoid E with factor J, and there f >= f(c) - ||J^T g||.
Each objective cut therefore raises lb to
max(lb, min(U, f(c) - ||J^T g||)), where ||J^T g|| is the width the
cut kernel returns for E before the cut.  An empty intersection proves
that nothing below U is left: lb becomes U.

A max-affine f run without a hook also gets the model step (Kelley's
cutting-plane model, J. SIAM 8, 1960): from time to time, simplex
weights on the rows nearest the max at the incumbent give the ball
bound L.b + (A^T L).x0 - R ||A^T L||, which holds for any weights and
wherever the ellipsoid is, and the vertex where those rows are equal is
evaluated if it lies in the ball.  Once the rows active at an interior
minimizer are known, the two close the bracket, long before the
ellipsoid shrinks to eps around the minimizer.  A vertex outside the
ball ends the tries of its metastep.  See bisect_level and
_model_step.

The run stops once U - lb <= eps, once U drops below
``stop_when_high_below``, at ``iteration_budget(n)`` iterations, or when
the caller's hook asks it to (see bisect_level).  A closed bracket
whose incumbent lies strictly inside the ball (by 10 eps) certifies the
global minimum; one on the sphere triggers another metastep around it
when budget remains.  Any other stop proves only the bracket it reports
(BudgetExhausted): lb is still a lower bound on the minimum over the
ball, which is the proof of how far from the optimum the run stopped.

Per-cut TraceRecords are built only when a trace is requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import DegenerateShape, NonFiniteValue
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
from .nnls import min_norm_weights
from .oracles import ConvexOracle, MaxAffineFunction

# The hook's slot comes every _MODEL_PERIOD (d+1) iterations.  The model
# step that fills it without a hook comes first after as many, and a try
# that does not halve the gap multiplies the wait before the next one by
# _MODEL_BACKOFF (see bisect_level; README measures both).
_MODEL_PERIOD = 4
_MODEL_BACKOFF = 2

_ROUNDING = float(np.finfo(float).eps)


class SolveStatus(Enum):
    GLOBAL_OPTIMUM_CERTIFIED = "GlobalOptimumCertified"
    BOUNDARY_REACHED = "BoundaryReached"
    BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass
class TraceRecord:
    query: int                # 1-based metastep counter within the solve
    iteration: int            # 1-based ellipsoid iteration within the metastep
    center: np.ndarray        # center before the cut
    value: Optional[float]    # f at the center; None unless the cut is "objective"
    cut: str                  # "objective" | "ball"
    depth: float              # raw slack passed to the cut
    log_volume: float         # log volume ratio after the cut, against the ball


@dataclass(frozen=True)
class MetastepConfig:
    radius: float
    level_tolerance: float = 1e-6
    max_metasteps: int = 16
    radius_growth: float = 1.0
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
    best_point: np.ndarray
    best_value: float
    status: SolveStatus
    iterations: int
    level_queries: int
    alpha_bracket: Tuple[float, float]  # proven (lower bound, incumbent value)
    depth: float  # radius minus the best point's distance from the ball's center
    trace: List[TraceRecord]
    query_iterations: List[int]
    config: MetastepConfig


def bisect_level(
    f: ConvexOracle,
    x0,
    cfg: MetastepConfig,
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

    Without a hook, a MaxAffineFunction gets the model step in the
    hook's slot instead (see _model_step), whatever the sign of lb.  It
    raises lb to the model's ball bound and probes a vertex of the
    model, which enters the incumbent only through f's value there.
    The first try comes after 4(d+1) iterations.  A try that halves the
    gap U - lb is followed by the next 4(d+1) iterations later; one that
    does not doubles the wait, so metasteps whose minimum lies on the
    sphere, where the model rarely helps, do not pay for a try every
    4(d+1) iterations.  A try whose vertex lies outside the ball (or
    that finds no bound) is the metastep's last: the model then points
    past the sphere, where the minimum over the ball is not one that
    weights with A^T L = 0 certify, and a skipped try only gives up a
    bound.  A hook takes the model step's place: the lp layer's hook
    runs its own NNLS try.  Any other oracle runs as with a hook that
    always returns False.

    A value f(c) below lb disproves the cut bound: rounding lost the
    minimizer from the ellipsoid.  The run then ends with lb taken from
    the model's ball bound alone (-inf without one), so no bracket has
    lb > U.
    """
    x0 = np.array(x0, dtype=float, copy=True)
    radius = cfg.radius
    eps = cfg.level_tolerance
    high_below = cfg.stop_when_high_below
    budget = cfg.iteration_budget(x0.shape[0])
    period = _MODEL_PERIOD * (x0.shape[0] + 1)
    model = f if hook is None and isinstance(f, MaxAffineFunction) else None
    wait = next_try = period
    query = _query_start + 1
    records: List[TraceRecord] = []

    e = Ellipsoid.ball(x0, radius)
    best_point: Optional[np.ndarray] = None
    upper = math.inf
    lower = model_lower = -math.inf
    iters = 0
    while iters < budget:
        iters += 1
        # cut_in_place replaces e.center, so ``center`` keeps the pre-cut
        # point for the incumbent and the trace.
        center = e.center
        du = center - x0
        dist = math.sqrt(float(du @ du))
        value = None
        if dist > radius:
            kind, normal, slack = "ball", du, dist * (dist - radius)
        else:
            value, normal = f.value_and_subgradient(center)
            value = float(value)
            if not math.isfinite(value):
                raise NonFiniteValue(f"objective value {value} at a center in the ball")
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
            # No point of the ball lies below the incumbent.
            lower = upper
        if trace and outcome is CutKind.UPDATED:
            records.append(
                TraceRecord(query, iters, center, value, kind, slack, e.log_volume_ratio)
            )
        if model is not None and iters >= next_try and lower < upper - eps:
            gap = upper - lower
            bound, vertex = _model_step(model, best_point, x0, radius)
            model_lower = max(model_lower, bound)
            if vertex is not None:
                probed = model.eval(vertex)
                if math.isfinite(probed) and probed < upper:
                    upper, best_point = probed, vertex
            lower = max(lower, min(upper, model_lower))
            if vertex is None:
                # The model points outside the ball: no later try.
                next_try = math.inf
            else:
                wait = period if upper - lower <= gap / 2.0 else wait * _MODEL_BACKOFF
                next_try = iters + wait
        if lower >= upper - eps or (high_below is not None and upper < high_below):
            if lower > upper:
                # A value below lb disproved the cut bound.
                lower = min(upper, model_lower)
            break
        if hook is not None and lower > 0.0 and iters % period == 0 and hook(best_point):
            break

    dist = float(np.linalg.norm(best_point - x0))
    if lower < upper - eps:
        status = SolveStatus.BUDGET_EXHAUSTED
    elif dist < radius - 10.0 * eps:
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
        depth=radius - dist,
        trace=records,
        query_iterations=[iters],
        config=cfg,
    )


def _model_step(
    f: MaxAffineFunction, point: np.ndarray, x0: np.ndarray, radius: float
) -> Tuple[float, Optional[np.ndarray]]:
    """A lower bound on min f over B(x0, radius), and a point of the ball
    to probe, from the rows of f near the max at ``point``.

    For simplex weights L on any rows (A, b) of f and p = A^T L, f(x) >=
    L.(A x + b) = L.b + p.x, so over the ball f >= L.b + p.x0 - R ||p||:
    the ball bound, which holds for every L and no matter where the
    ellipsoid is.  It is tight when L are the multipliers of the rows
    active at an interior minimizer (p = 0, L.b = min f), and those are
    the weights min_norm_weights finds once the rows it gets contain the
    active ones.  So the rows are sorted by their gap to the max at
    ``point``, and prefixes of n + 1 rows and up are tried until p is 0
    up to rounding or a prefix gives a bound no higher than the one
    before.  Each bound is lowered by an allowance for the rounding of
    its sums and of p.

    The point to probe is the vertex where the rows in the best L's
    support are equal (least squares when they do not meet in one
    point), if it lies in the ball; at the active rows of an interior
    minimizer, that is the minimizer.  Returns (bound, vertex), with
    None for a vertex outside the ball or when no prefix gave a bound.
    """
    rows, offsets = f.rows, f.offsets
    m, n = rows.shape
    values = rows @ point + offsets
    order = np.argsort(float(values.max()) - values, kind="stable")
    best, support = -math.inf, None
    for k in range(min(m, n + 1), m + 1):
        take = order[:k]
        chosen = rows[take]
        weights = min_norm_weights(chosen)
        p = chosen.T @ weights
        size = np.abs(chosen).T @ weights
        # hypot does not overflow where the sum of squares would.
        pull = radius * math.hypot(*p)
        bound = float(weights @ offsets[take]) + float(p @ x0) - pull
        scale = (float(weights @ np.abs(offsets[take]))
                 + float(size @ np.abs(x0)) + radius * math.hypot(*size))
        slack = 4.0 * (k + n + 2) * _ROUNDING * scale
        bound -= slack
        if not bound > best:
            break
        best, support = bound, take[weights > 0.0]
        if pull <= slack:
            # p is 0 up to rounding: more rows cannot shrink it.
            break
    if support is None:
        return best, None
    # A_S (point + dx) + b_S = s for (dx, s), divided by the largest entry
    # of A: the least-norm solution of an underdetermined system weighs dx
    # against s, and this weighting does not change with the scale of f.
    top = float(np.abs(rows).max()) or 1.0
    system = np.hstack([rows[support] / top, -np.ones((support.size, 1))])
    step = np.linalg.lstsq(system, -values[support] / top, rcond=None)[0]
    vertex = point + step[:n]
    if not float(np.linalg.norm(vertex - x0)) <= radius:
        return best, None
    return best, vertex


def run_metasteps(
    f: ConvexOracle,
    x0,
    cfg: MetastepConfig,
    *,
    trace: bool = False,
    hook: Optional[Callable[[np.ndarray], bool]] = None,
) -> MetastepResult:
    """Repeat metasteps, recentering at each boundary incumbent.

    Stops on any status but BOUNDARY_REACHED, or when a recentred
    metastep fails to strictly improve; the result carries the
    last metastep's outcome with counters and trace aggregated over all
    of them.  A metastep that raises NonFiniteValue after one has
    completed ends the run with the completed metasteps' result: their
    brackets are proven, and only the raising one is lost.  ``trace``
    and ``hook`` are passed to each metastep (see bisect_level); a run
    the hook ends reports BudgetExhausted, so no further metastep
    follows it.
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
        try:
            step = bisect_level(
                f, x, step_cfg, trace=trace, hook=hook, _query_start=total_queries
            )
        except NonFiniteValue:
            if result is None:
                raise
            break
        result = step
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
