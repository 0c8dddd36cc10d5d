"""Ball-restricted convex minimization by level-set bisection.

One metastep asks, for a shrinking bracket of levels alpha, whether the
set S(alpha) = ball((x0, f(x0)), R) cut with epi(f) and {y <= alpha}
(plus optional linear side constraints on x) has a point.  Each such
query runs an ellipsoid method in R^(n+1); the bracket is bisected on
the query answers.  A witness strictly inside the lifted ball certifies
the global minimum; a boundary witness triggers another metastep around
it when budget remains.

Within a metastep, each level query warm-starts from the final
ellipsoid of the most recent query that returned a witness (feasible or
epsilon-feasible); the first query starts from the full lifted ball.
This is sound because every cut made at level alpha keeps all of
S(alpha') for alpha' <= alpha: level, epigraph, ball and side-constraint
cuts trivially, objective cuts because they are clamped at
max(incumbent, alpha).  Bisection only ever queries below the
last witness level.  Each query cuts a private copy of its start
ellipsoid in place (geometry.cut_in_place), so an infeasible query never
changes the warm start; only a witness replaces it.
The log volume ratio carries over with the ellipsoid, so the volume
floor d*log(eps/R) is still measured against the metastep's ball.

A query that runs out of iterations proves nothing: the bracket is left
as it is and the metastep ends with BudgetExhausted.  So does a metastep
that a bracket short-circuit (stop_when_*) or the query cap stops with
its bracket still open: its witness is the best point found, not a
certified minimum.  A metastep with no witness whose bracket closed with
every query infeasible ends with LevelSetEmpty: no point of the ball
meets the side constraints below its top level.

Per-cut TraceRecords are built only when a trace is requested.

Every cut is a deep cut at the measured slack of the violated constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .errors import DegenerateShape, InvalidBracket
# deep_cut is not called here; it stays importable as solver.deep_cut, a
# name benchmark/tracing.py wraps.
from .geometry import (
    CutKind,
    Ellipsoid,
    Halfspace,
    cut_in_place,
    deep_cut,
    intersects_halfspace,
)
from .oracles import ConvexOracle, EpigraphPoint, LinearConstraintSet


class SolveStatus(Enum):
    GLOBAL_OPTIMUM_CERTIFIED = "GlobalOptimumCertified"
    BOUNDARY_REACHED = "BoundaryReached"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    # No witness, and bisection closed its bracket with every query proven
    # infeasible: the level set is empty at every level the ball reaches.
    LEVEL_SET_EMPTY = "LevelSetEmpty"


class LevelVerdict(Enum):
    FEASIBLE_WITNESS = "FeasibleWitness"
    EPSILON_FEASIBLE = "EpsilonFeasible"
    INFEASIBLE = "Infeasible"
    BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass
class TraceRecord:
    query: int          # 1-based level-query counter within the solve
    iteration: int      # 1-based ellipsoid iteration within the query
    center: np.ndarray  # lifted center (x, y) before the cut
    value: float        # f at the x part of the center
    cut: str            # "level" | "epigraph" | "objective" | "ball" | "constraint"
    depth: float        # raw slack passed to the cut
    log_volume: float   # log volume ratio after the cut, against the metastep's ball


@dataclass(frozen=True)
class MetastepConfig:
    radius: float
    level_tolerance: float = 1e-6
    max_metasteps: int = 16
    radius_growth: float = 1.0
    # Known lower bound on f; tightens the bisection bracket when given.
    value_floor: Optional[float] = None
    # Stop the whole solve the moment any evaluated point that satisfies
    # the side constraints has f <= this value.
    early_stop_value: Optional[float] = None
    # Normalized slack allowed when testing side constraints at a point.
    constraint_tolerance: float = 1e-9
    # Optional bracket short-circuits: stop once the feasible level is
    # provably below / the infeasible level provably above a threshold.
    stop_when_high_below: Optional[float] = None
    stop_when_low_above: Optional[float] = None

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not 0.0 < self.level_tolerance < self.radius:
            raise ValueError("level_tolerance must lie in (0, radius)")
        if self.max_metasteps < 1:
            raise ValueError("max_metasteps must be >= 1")
        if self.radius_growth < 1.0:
            raise ValueError("radius_growth must be >= 1")

    def iteration_budget(self, lifted_dim: int) -> int:
        """Per-level-query ellipsoid iteration cap, 2(d+1)(d+2) log(R/eps)."""
        d = lifted_dim
        return max(
            1,
            math.ceil(2.0 * (d + 1) * (d + 2) * math.log(self.radius / self.level_tolerance)),
        )

    def query_budget(self) -> int:
        """Cap on level queries per metastep."""
        return max(
            1, math.ceil(math.log2(2.0 * self.radius / self.level_tolerance))
        )


@dataclass
class LevelFeasibility:
    verdict: LevelVerdict
    witness: Optional[EpigraphPoint]
    witness_value: Optional[float]  # f at the witness x
    iterations: int


@dataclass
class MetastepResult:
    best_point: Optional[np.ndarray]
    best_value: float
    status: SolveStatus
    iterations: int
    level_queries: int
    alpha_bracket: Tuple[float, float]
    trace: List[TraceRecord]
    query_iterations: List[int]
    early_stopped: bool
    config: MetastepConfig


def choose_cut_depth(center_value: float, best_value: float) -> float:
    """Slack for an objective-space deep cut: observed gap, never negative."""
    return max(center_value - best_value, 0.0)


class _LevelSearch:
    """Evaluation bookkeeping shared by the level queries of one metastep."""

    def __init__(
        self,
        f: ConvexOracle,
        x0: np.ndarray,
        f0: float,
        cfg: MetastepConfig,
        extra: Optional[LinearConstraintSet],
        query_start: int = 0,
        trace: bool = False,
    ):
        self.f = f
        self.cfg = cfg
        self.extra = extra
        self.x0 = x0
        self.f0 = f0
        self.lifted_start = np.append(x0, f0)
        self.lowest_value = f0  # incumbent over every evaluated point
        self.early_stop: Optional[Tuple[np.ndarray, float]] = None
        self.tracing = trace
        self.trace: List[TraceRecord] = []
        self.query_iterations: List[int] = []
        self.query_index = query_start
        # Final ellipsoid of the last query that returned a witness; it
        # contains S(alpha) for every level bisection asks about next.
        # Queries cut a copy of it, never the ellipsoid itself.
        self.warm: Optional[Ellipsoid] = None
        self._note(x0, f0)

    def extra_ok(self, x) -> bool:
        if self.extra is None:
            return True
        value, _ = self.extra.normalized_max_violation(x)
        return value <= self.cfg.constraint_tolerance

    def _note(self, x: np.ndarray, value: float) -> None:
        if value < self.lowest_value:
            self.lowest_value = value
        esv = self.cfg.early_stop_value
        if (
            esv is not None
            and self.early_stop is None
            and value <= esv
            and self.extra_ok(x)
        ):
            self.early_stop = (np.array(x, dtype=float, copy=True), value)

    def evaluate(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        value, g = self.f.value_and_subgradient(x)
        value = float(value)
        self._note(x, value)
        return value, g


def _run_level_query(state: _LevelSearch, alpha: float) -> LevelFeasibility:
    cfg = state.cfg
    n = state.f.dim
    d = n + 1
    radius = cfg.radius
    eps = cfg.level_tolerance
    tolerance = cfg.constraint_tolerance
    budget = cfg.iteration_budget(d)
    volume_floor = d * math.log(eps / radius)
    extra = state.extra
    lifted_start = state.lifted_start
    level_normal = np.zeros(d)
    level_normal[n] = 1.0
    plane = Halfspace(level_normal, _level_anchor(n, alpha))
    # Lifted normals of epigraph, objective and constraint cuts are
    # written here; the kernel reads a normal and keeps no reference.
    normal_buf = np.empty(d)

    # The query cuts a private copy, so state.warm changes only when the
    # query returns a witness.
    if state.warm is not None:
        e = state.warm.copy()
    else:
        e = Ellipsoid.ball(lifted_start, radius)
    state.query_index += 1
    query = state.query_index
    iters = 0
    try:
        while iters < budget:
            iters += 1
            # cut_in_place replaces e.center, so ``center`` (and the view
            # ``x``) keep the pre-cut values for the trace.
            center = e.center
            x = center[:n]
            y = float(center[n])
            fx, g = state.evaluate(x)
            if state.early_stop is not None:
                return LevelFeasibility(LevelVerdict.INFEASIBLE, None, None, iters)

            du = center - lifted_start
            dist = math.sqrt(float(du @ du))
            ball_ok = dist <= radius
            epi_ok = fx <= y
            if extra is None:
                extra_viol, extra_idx = -math.inf, -1
            else:
                extra_viol, extra_idx = extra.normalized_max_violation(x)
            extra_ok = extra_viol <= tolerance

            if ball_ok and epi_ok and extra_ok:
                if y - alpha <= eps:
                    state.warm = e
                    w = EpigraphPoint(x.copy(), y)
                    verdict = (
                        LevelVerdict.FEASIBLE_WITNESS
                        if y <= alpha
                        else LevelVerdict.EPSILON_FEASIBLE
                    )
                    return LevelFeasibility(verdict, w, fx, iters)
                if not intersects_halfspace(e, plane):
                    return LevelFeasibility(LevelVerdict.INFEASIBLE, None, None, iters)
                kind = "level"
                normal = level_normal
                slack = y - alpha
            else:
                kind, normal, slack = _pick_separator(
                    state, x, y, fx, g, du, dist, extra_viol, extra_idx, alpha, normal_buf
                )

            outcome = cut_in_place(e, normal, slack)[0]
            if outcome is CutKind.EMPTY_INTERSECTION:
                # The cut halfspace contains S(alpha) entirely, so an empty
                # intersection certifies the level set is empty.
                return LevelFeasibility(LevelVerdict.INFEASIBLE, None, None, iters)
            if outcome is not CutKind.UPDATED:
                raise DegenerateShape("cut produced no update from nonnegative slack")
            if state.tracing:
                state.trace.append(
                    TraceRecord(query, iters, center, fx, kind, slack, e.log_volume_ratio)
                )
            if e.log_volume_ratio < volume_floor:
                return LevelFeasibility(LevelVerdict.INFEASIBLE, None, None, iters)
        return LevelFeasibility(LevelVerdict.BUDGET_EXHAUSTED, None, None, iters)
    finally:
        state.query_iterations.append(iters)


def _level_anchor(n: int, alpha: float) -> np.ndarray:
    anchor = np.zeros(n + 1)
    anchor[n] = alpha
    return anchor


def _pick_separator(
    state: _LevelSearch,
    x: np.ndarray,
    y: float,
    fx: float,
    g: np.ndarray,
    du: np.ndarray,
    dist: float,
    extra_viol: float,
    extra_idx: int,
    alpha: float,
    normal_buf: np.ndarray,
):
    """Most-violated separator among epigraph, ball, and side constraints.

    Violations are compared in Euclidean-distance units so the choice is
    scale-free.  ``g`` is a subgradient of f at x.  Returns (kind, lifted
    normal, raw slack); epigraph, objective and constraint normals are
    written into ``normal_buf``.
    """
    cfg = state.cfg
    n = x.shape[0]
    best = -math.inf  # normalized violation of the chosen cut
    kind = None

    if fx > y:
        gg = float(g @ g)
        slack = fx - y
        best, kind = slack / math.sqrt(gg + 1.0), "epigraph"
        # An objective-space cut at the incumbent (clamped by alpha so no
        # point of the level set is lost) may be deeper still.
        gnorm = math.sqrt(gg)
        depth = choose_cut_depth(fx, max(state.lowest_value, alpha))
        if gnorm > 0.0 and depth / gnorm > best:
            best, kind, slack = depth / gnorm, "objective", depth
    if dist > cfg.radius and (kind is None or dist - cfg.radius > best):
        best, kind, slack = dist - cfg.radius, "ball", dist * (dist - cfg.radius)
    if extra_viol > cfg.constraint_tolerance and (kind is None or extra_viol > best):
        kind = "constraint"
        slack = float(state.extra.rows[extra_idx] @ x + state.extra.offsets[extra_idx])

    if kind is None:
        # Numerically on the boundary of everything; retreat to a central
        # ball cut, which is always sound.
        return "ball", du if dist > 0 else _level_anchor(n, 1.0), 0.0
    if kind == "ball":
        normal = du
    else:
        normal = normal_buf
        if kind == "constraint":
            normal[:n] = state.extra.rows[extra_idx]
            normal[n] = 0.0
        else:
            normal[:n] = g
            normal[n] = -1.0 if kind == "epigraph" else 0.0
    return kind, normal, slack


def level_set_feasible(
    f: ConvexOracle,
    x0,
    cfg: MetastepConfig,
    alpha: float,
    extra: Optional[LinearConstraintSet] = None,
) -> LevelFeasibility:
    """Single feasibility query for S(alpha); see the module docstring."""
    x0 = np.asarray(x0, dtype=float)
    f0 = float(f.eval(x0))
    if not (f0 - cfg.radius <= alpha <= f0 + cfg.radius):
        raise InvalidBracket(
            f"level {alpha} outside [{f0 - cfg.radius}, {f0 + cfg.radius}]"
        )
    state = _LevelSearch(f, x0, f0, cfg, extra)
    return _run_level_query(state, alpha)


def bisect_level(
    f: ConvexOracle,
    x0,
    cfg: MetastepConfig,
    extra: Optional[LinearConstraintSet] = None,
    *,
    trace: bool = False,
    _query_start: int = 0,
) -> MetastepResult:
    """One metastep: bisect the level bracket around (x0, f(x0)).

    With ``trace`` the result carries one TraceRecord per cut; without
    it ``trace`` is empty.  Tracing changes nothing else.
    """
    x0 = np.array(x0, dtype=float, copy=True)
    f0 = float(f.eval(x0))
    radius = cfg.radius
    eps = cfg.level_tolerance
    state = _LevelSearch(f, x0, f0, cfg, extra, query_start=_query_start, trace=trace)

    lo = f0 - radius
    if cfg.value_floor is not None:
        # Levels below a known lower bound are empty; keep lo strictly
        # under the bound so the "lo is infeasible" reading stays true.
        lo = max(lo, cfg.value_floor - eps)
    hi = f0 + radius
    witness: Optional[EpigraphPoint] = None
    witness_value = math.inf
    if state.extra_ok(x0):
        # (x0, f0) witnesses S(f0) for free.
        witness = EpigraphPoint(x0.copy(), f0)
        witness_value = f0
        hi = f0

    queries = 0
    query_cap = cfg.query_budget()
    out_of_budget = False
    while (
        state.early_stop is None
        and hi - lo > eps
        and queries < query_cap
        and not (cfg.stop_when_high_below is not None and hi < cfg.stop_when_high_below)
        and not (cfg.stop_when_low_above is not None and lo > cfg.stop_when_low_above)
    ):
        mid = 0.5 * (lo + hi)
        outcome = _run_level_query(state, mid)
        queries += 1
        if state.early_stop is not None:
            break
        if outcome.verdict is LevelVerdict.BUDGET_EXHAUSTED:
            # Running out of iterations proves nothing about S(mid).
            out_of_budget = True
            break
        if outcome.verdict is LevelVerdict.INFEASIBLE:
            lo = mid
            continue
        witness = outcome.witness
        witness_value = float(outcome.witness_value)
        # The witness itself may support a level below mid: the lowest
        # lift of its x part that still stays inside the ball.
        cap = f0 - math.sqrt(
            max(radius * radius - _sqdist(witness.x, x0), 0.0)
        )
        hi = min(mid, max(witness_value, cap))

    # Only a closed bracket with no query out of budget proves anything:
    # a bracket short-circuit or the query cap can stop with it open.
    settled = not out_of_budget and hi - lo <= eps
    point = None if witness is None else witness.x
    value = witness_value
    if state.early_stop is not None:
        point, value = state.early_stop
        status = SolveStatus.BUDGET_EXHAUSTED
    elif not settled:
        status = SolveStatus.BUDGET_EXHAUSTED
    elif witness is None:
        status = SolveStatus.LEVEL_SET_EMPTY
    else:
        # Interior-minimum certificate: take the lowest ball-valid lift of
        # the witness and ask whether it clears the sphere by the safety
        # margin.
        y_star = max(
            witness_value,
            f0 - math.sqrt(max(radius * radius - _sqdist(witness.x, x0), 0.0)),
        )
        gap = np.append(witness.x, y_star) - state.lifted_start
        interior = math.sqrt(float(gap @ gap)) < radius - 10.0 * eps
        status = (
            SolveStatus.GLOBAL_OPTIMUM_CERTIFIED if interior else SolveStatus.BOUNDARY_REACHED
        )
    return MetastepResult(
        best_point=point,
        best_value=value,
        status=status,
        iterations=sum(state.query_iterations),
        level_queries=queries,
        alpha_bracket=(lo, hi),
        trace=state.trace,
        query_iterations=state.query_iterations,
        early_stopped=state.early_stop is not None,
        config=cfg,
    )


def _sqdist(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(d @ d)


def run_metasteps(
    f: ConvexOracle,
    x0,
    cfg: MetastepConfig,
    extra: Optional[LinearConstraintSet] = None,
    *,
    trace: bool = False,
) -> MetastepResult:
    """Repeat metasteps, recentering at each boundary witness.

    Stops on a certificate, an early stop, a missing witness, or when a
    recentred metastep fails to strictly improve; the result carries the
    last metastep's outcome with counters and trace aggregated over all
    of them.  ``trace`` is passed to each metastep (see bisect_level).
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
            f, x, step_cfg, extra, trace=trace, _query_start=total_queries
        )
        records.extend(result.trace)
        query_iterations.extend(result.query_iterations)
        total_queries += result.level_queries
        if (
            result.early_stopped
            or result.status is not SolveStatus.BOUNDARY_REACHED
            or result.best_point is None
        ):
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
