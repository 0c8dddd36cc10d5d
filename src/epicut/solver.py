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
max(lb, min(U, f(c) - ||J^T g|| - 4 eps_mach |f(c)|)), where ||J^T g||
is the width the cut kernel returns for E before the cut; the last term
allows for the rounding of f(c) and of the difference, which reads f(c)
back once the width is below its last bit.  An empty intersection
proves that nothing below U is left: lb becomes U.

A max-affine f also gets the model step (Kelley's cutting-plane
model, J. SIAM 8, 1960): from time to time, simplex weights on the
rows nearest the max at the incumbent give the ball bound
L.b + (A^T L).x0 - R ||A^T L||, which holds for any weights and
wherever the ellipsoid is, and the vertex where those rows are equal is
evaluated if it lies in the ball.  Once the rows active at an interior
minimizer are known, the two close the bracket, long before the
ellipsoid shrinks to eps around the minimizer.  A vertex outside the
ball ends the tries of its metastep.  In a metastep that is not its
run's last, it ends the metastep itself where f is finite: the run
moves on the model's word.  There a vertex in the ball gets a second
candidate when p = A^T L is nonzero beyond rounding, since the model
then falls without bound along -p: the slope vertex just past the
sphere on that ray from the incumbent, which ends the metastep only
where f is below U.  If lb > f(vertex) by then, the ball holds no
global minimizer (min over the ball >= lb > f(vertex)), a proven
witness.  Otherwise the move is unproven: the bracket stays open,
proven only over its ball.  Either way the next ball is centred at the
vertex and grows to hold the in-ball incumbent.  A move is never a
proof; only the run's last metastep, which cannot move, backs a
reported verdict.  See bisect_level and _model_step.

A metastep stops once U - lb <= eps, once U drops below
``stop_when_high_below`` (default -inf: never), at such a vertex, once
E has collapsed below the rounding of its center, or at
``iteration_budget(n)`` iterations; one block then decides how it ended
(see bisect_level).  A closed bracket whose
incumbent lies strictly inside the ball certifies the global minimum;
one on the sphere, a proven witness or a move starts another metastep
when budget remains.  Any other end proves only its bracket
(BudgetExhausted): lb still bounds the minimum over the ball, the proof
of how far from the optimum the run stopped.

run_metasteps chains metasteps this way and builds one result of the
chain; lp's decision is one such run.

Per-cut TraceRecords are built only when a trace is requested.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .errors import DegenerateShape, NonFiniteValue
# deep_cut and intersects_halfspace are not called here; they stay
# importable as solver.deep_cut and solver.intersects_halfspace, names
# benchmark/tracing.py wraps.
from .geometry import (  # noqa: F401
    _PIVOT_FLOOR,
    CutKind,
    Ellipsoid,
    cut_in_place,
    deep_cut,
    intersects_halfspace,
)
from .nnls import nnls, simplex_system
from .oracles import ConvexOracle, MaxAffineFunction

# The model step comes first after d+1 iterations, and a try that does
# not halve the gap multiplies the wait before the next one by
# _MODEL_BACKOFF (see bisect_level; README measures it).
_MODEL_BACKOFF = 2
# A slope vertex lies this factor past the distance at which the
# model's descent ray from the incumbent leaves the ball (see
# bisect_level).  Untuned.
_SLOPE_REACH = 1.01

_ROUNDING = float(np.finfo(float).eps)

_LOG_MAX_FLOAT = math.log(sys.float_info.max)


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
    stop_when_high_below: float = -math.inf

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not 0.0 < self.level_tolerance < self.radius:
            raise ValueError("level_tolerance must lie in (0, radius)")
        # Negated tests, so that NaN fails them; numbers.Integral takes
        # numpy's integers and rejects every float.
        if not (isinstance(self.max_metasteps, numbers.Integral) and self.max_metasteps >= 1):
            raise ValueError("max_metasteps must be an integer >= 1")
        if not self.radius_growth >= 1.0:
            raise ValueError("radius_growth must be >= 1")
        # NaN would compare false both ways and run as -inf.
        if math.isnan(self.stop_when_high_below):
            raise ValueError("stop_when_high_below must not be NaN")

    def check_radii(self) -> None:
        """Raise ValueError unless each radius R g^k for k < max_metasteps
        has a square in [1e-300, largest float].

        A run squares its radii: Ellipsoid.ball's pivot, ||x - x0||^2
        and the ball cut's slack.  The smallest is R, tested as the ball
        tests it; the largest is tested in log space, where g^k cannot
        overflow.  A move on the model's word can grow a later radius
        past R g^k; run_metasteps tests each radius it reaches and ends
        the run at one out of range.
        """
        steps = self.max_metasteps - 1
        top = math.log(self.radius) + (steps * math.log(self.radius_growth) if steps else 0.0)
        _check_squares(self.radius, top, "each radius radius * radius_growth**k "
                       "for k < max_metasteps")

    def iteration_budget(self, d: int) -> int:
        """Per-metastep iteration cap in R^d, 2(d+1)(d+2) log(R/eps)."""
        return max(
            1,
            math.ceil(2.0 * (d + 1) * (d + 2) * math.log(self.radius / self.level_tolerance)),
        )


def _squares_fit(smallest: float, log_largest: float) -> bool:
    # smallest**2 >= 1e-300 and exp(log_largest)**2 <= the largest float.
    return smallest * smallest >= _PIVOT_FLOOR and 2.0 * log_largest <= _LOG_MAX_FLOAT


def _check_squares(smallest: float, log_largest: float, radii: str) -> None:
    if not _squares_fit(smallest, log_largest):
        raise ValueError(
            f"{radii} must have a square in [{_PIVOT_FLOOR:g}, {sys.float_info.max:g}]")


@dataclass
class MetastepResult:
    best_point: np.ndarray
    status: SolveStatus
    alpha_bracket: Tuple[float, float]  # proven (lower bound, incumbent value)
    depth: float  # radius minus the best point's distance from the ball's center
    trace: List[TraceRecord]
    query_iterations: List[int]  # ellipsoid iterations of each metastep
    config: MetastepConfig
    # The model vertex outside the ball that ended the metastep (see
    # bisect_level): proven with BoundaryReached (f there < lb), an
    # unproven move with BudgetExhausted; None for any other end.
    outside: Optional[np.ndarray] = None

    @property
    def best_value(self) -> float:  # the incumbent value U
        return self.alpha_bracket[1]

    @property
    def iterations(self) -> int:
        return sum(self.query_iterations)

    @property
    def level_queries(self) -> int:
        return len(self.query_iterations)


# Every overflow in a metastep is handled: the cut kernel rescales, f(c)
# raises NonFiniteValue and a vertex where f is not finite ends nothing.
@np.errstate(over="ignore")
def bisect_level(
    f: ConvexOracle,
    x0,
    cfg: MetastepConfig,
    *,
    trace: bool = False,
    _witness: bool = False,
) -> MetastepResult:
    """One metastep: a single ellipsoid run over the ball around x0.

    Counts as one level query.  With ``trace`` the result carries one
    TraceRecord per cut, each with query 1 (run_metasteps renumbers them);
    without it ``trace`` is empty.  Tracing changes nothing else.
    Raises ValueError unless the radius has a square in [1e-300, largest
    float], the range MetastepConfig.check_radii asks of each R g^k.

    A MaxAffineFunction gets the model step (see _model_step), whatever
    the sign of lb.  It raises lb to the model's ball bound and probes a
    vertex of the model, which enters the incumbent only through f's
    value there.  The first try comes after d+1 iterations.  A try that
    halves the gap U - lb is followed by the next d+1 iterations later;
    one that does not doubles the wait.  A try whose vertex lies
    outside the ball (or that finds no bound) is the metastep's last:
    the model then points past the sphere, and a skipped try only gives
    up a bound.  Any other oracle has no model step.  With ``_witness``
    (run_metasteps sets it on every metastep but the last its budget
    allows), f is evaluated at that outside vertex, and where it is
    finite the vertex is held and ends the metastep.  With ``_witness``,
    a try whose vertex lies in the ball while its best prefix leaves p
    nonzero beyond rounding also evaluates f once at the slope vertex,
    _SLOPE_REACH t along -p from the incumbent, where t is the distance
    at which that ray leaves the ball; the slope vertex is held, and
    ends the metastep, only where f there is below U.

    The loop leaves by one test after each cut: the bracket closed
    (U - lb <= eps), U below cfg.stop_when_high_below (-inf by default:
    never), or a vertex held; the budget bounds the loop, and a cut
    kernel that finds E collapsed (its factor underflowed, once eps is
    below the rounding of f) ends it too.  One block after it decides
    how the metastep ended, in this order:

    1. lb > U: a value below lb disproved the cut bound (rounding lost
       the minimizer), so lb becomes the model's ball bound alone (-inf
       without one), capped at U.
    2. A passed stop value drops the vertex, and so does a closed
       bracket unless lb > f there.
    3. The status: BoundaryReached with lb > f at the vertex (a proven
       witness, in ``outside``, beside the in-ball incumbent and
       bracket); else BudgetExhausted with the bracket open, and proven,
       with ``outside`` set if a vertex, of either kind, ended it (an
       unproven move);
       else GlobalOptimumCertified when the incumbent lies more than
       ``inner`` (10 eps and the rounding of R and x0) inside the ball;
       else BoundaryReached.
    """
    x0 = np.array(x0, dtype=float, copy=True)
    radius = cfg.radius
    _check_squares(radius, math.log(radius), "the metastep's radius")
    eps = cfg.level_tolerance
    high_below = cfg.stop_when_high_below
    budget = cfg.iteration_budget(x0.shape[0])
    period = x0.shape[0] + 1
    model = f if isinstance(f, MaxAffineFunction) else None
    wait = period
    # Without a model the first try never comes.
    next_try = period if model is not None else math.inf
    value_and_subgradient = f.value_and_subgradient
    # Inside by 10 eps, and by more than the rounding of the centers'
    # coordinates, which is about eps_mach (R + |x0|).
    inner = 10.0 * eps + 16.0 * _ROUNDING * (radius + float(np.abs(x0).max()))
    records: List[TraceRecord] = []

    e = Ellipsoid.ball(x0, radius)
    best_point: Optional[np.ndarray] = None
    upper = math.inf
    lower = model_lower = -math.inf
    # The model vertex outside the ball that ends the metastep, and f
    # there; inf while none is held.
    witness, witness_value = None, math.inf
    iters = 0
    while iters < budget:
        iters += 1
        # cut_in_place replaces e.center, so ``center`` keeps the pre-cut
        # point for the incumbent and the trace.
        center = e.center
        du = center - x0
        dist = math.sqrt(du.dot(du))
        if dist > radius:
            # A ball cut; ``value`` None marks it below.
            value, normal, slack = None, du, dist * (dist - radius)
        else:
            value, normal = value_and_subgradient(center)
            # A generic oracle may return a numpy scalar.
            value = float(value)
            if not math.isfinite(value):
                raise NonFiniteValue(f"objective value {value} at a center in the ball")
            if value < upper:
                upper, best_point = value, center
            slack = value - upper

        try:
            outcome, _, width = cut_in_place(e, normal, slack)
        except DegenerateShape:
            # E's factor has underflowed: once eps is below the rounding
            # of f, the cuts shrink E about a center they can no longer
            # move.  lb and U stay proven; the bracket stays open.
            break
        # Only a zero normal (width 0) leaves E as it is from slack >= 0.
        if outcome is CutKind.NO_CUT and width > 0.0:
            raise DegenerateShape("cut produced no update from nonnegative slack")
        if value is not None:
            # The minimizer lies in the ellipsoid, where f >= value - width.
            # An empty intersection has value - width >= upper, and a zero
            # subgradient (width 0) makes the center a global minimizer.
            # 4 eps_mach |value| allows for the rounding of both terms.
            lower = max(lower, min(upper, value - width - 4.0 * _ROUNDING * abs(value)))
        elif outcome is CutKind.EMPTY_INTERSECTION:
            # No point of the ball lies below the incumbent.
            lower = upper
        if trace and outcome is CutKind.UPDATED:
            kind = "ball" if value is None else "objective"
            records.append(
                TraceRecord(1, iters, center, value, kind, slack, e.log_volume_ratio)
            )
        if iters >= next_try and lower < upper - eps:
            gap = upper - lower
            bound, vertex, slope = _model_step(model, best_point, x0, radius)
            model_lower = max(model_lower, bound)
            inside = vertex is not None and _distance(vertex, x0) <= radius
            if inside:
                probed = model.eval(vertex)
                if math.isfinite(probed) and probed < upper:
                    upper, best_point = probed, vertex
                if _witness and slope is not None:
                    # The model falls without bound along -slope: the
                    # point just past the sphere on that ray from the
                    # incumbent, held only where f is below U.
                    past = _past_the_sphere(best_point, slope, x0, radius)
                    witness_value = model.eval(past)
                    held = -math.inf < witness_value < upper and _distance(past, x0) > radius
                    witness = past if held else None
            elif _witness and vertex is not None:
                # A vertex outside the ball, held where f is finite.
                witness_value = model.eval(vertex)
                witness = vertex if math.isfinite(witness_value) else None
            lower = max(lower, min(upper, model_lower))
            if not inside:
                # The model points outside the ball: no later try.
                next_try = math.inf
            else:
                wait = period if upper - lower <= gap / 2.0 else wait * _MODEL_BACKOFF
                next_try = iters + wait
        if lower >= upper - eps or upper < high_below or witness is not None:
            break

    if lower > upper:
        # A value below lb disproved the cut bound.
        lower = min(upper, model_lower)
    closed = lower >= upper - eps
    depth = radius - _distance(best_point, x0)
    if upper < high_below:
        witness = None
    proven = witness is not None and lower > witness_value
    if closed and not proven:
        # Only a proven witness outlives a closed bracket.
        witness = None
    if proven:
        status = SolveStatus.BOUNDARY_REACHED
    elif not closed:
        status = SolveStatus.BUDGET_EXHAUSTED
    elif depth > inner:
        status = SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
    else:
        status = SolveStatus.BOUNDARY_REACHED
    return MetastepResult(
        best_point=best_point,
        status=status,
        alpha_bracket=(lower, upper),
        depth=depth,
        trace=records,
        query_iterations=[iters],
        config=cfg,
        outside=witness,
    )


def _distance(x: np.ndarray, y: np.ndarray) -> float:
    # np.linalg.norm's own formula for a 1-D float vector.
    d = x - y
    return math.sqrt(d.dot(d))


def _model_step(
    f: MaxAffineFunction, point: np.ndarray, x0: np.ndarray, radius: float
) -> Tuple[float, Optional[np.ndarray], Optional[np.ndarray]]:
    """A lower bound on min f over B(x0, radius), and a point to probe,
    from the rows of f near the max at ``point``.

    For simplex weights L on any rows (A, b) of f and p = A^T L, f(x) >=
    L.(A x + b) = L.b + p.x, so over the ball f >= L.b + p.x0 - R ||p||:
    the ball bound, which holds for every L and no matter where the
    ellipsoid is.  It is tight when L are the multipliers of the rows
    active at an interior minimizer (p = 0, L.b = min f), and those are
    the weights of least ||A^T L|| (nnls.min_norm_weights) once the rows
    contain the active ones.  So the rows are sorted by their gap to the
    max at ``point``, and prefixes of n + 1 rows and up are tried until p
    is 0 up to rounding or a prefix gives a bound no higher than the one
    before.  Each prefix is a column slice of one nnls.simplex_system of
    the sorted rows; the first is solved from scratch, and each later
    one resumes from the last one's raw solution padded with zeros,
    which meets the KKT conditions on the old columns, so that the new
    column enters first.  Each bound is lowered by an allowance for the
    rounding of its sums and of p.

    The point to probe is the vertex where the rows in the best L's
    support are equal (least squares when they do not meet in one
    point), wherever it lies; at the active rows of an interior
    minimizer, that is the minimizer.  Returns (bound, vertex, slope):
    None for the vertex when no prefix gave a bound, and slope the best
    prefix's p, along whose negative the model falls without bound, or
    None when it is 0 up to rounding or no prefix gave a bound.
    """
    rows, offsets = f.rows, f.offsets
    m, n = rows.shape
    # ndarray.dot throughout gives matmul's bits: on matrix-vector products
    # of any layout, and on chosen, rows of a C-contiguous fancy-indexed
    # copy.
    values = f._values(point)
    order = np.argsort(float(values.max()) - values, kind="stable")
    sorted_rows, sorted_offsets = rows[order], offsets[order]
    first = min(m, n + 1)
    matrix, target = simplex_system(sorted_rows, float(np.max(np.abs(sorted_rows[:first]))))
    raw = None
    best, support = -math.inf, None
    for k in range(first, m + 1):
        # A column slice of one simplex_system, resumed from the last
        # prefix's raw solution padded with a zero (see nnls).
        raw = nnls(matrix[:, :k], target, _start=None if raw is None else np.append(raw, 0.0))
        weights = raw / float(raw.sum())
        chosen = sorted_rows[:k]
        p = weights.dot(chosen)
        size = weights.dot(np.abs(chosen))
        # hypot does not overflow where the sum of squares would; it
        # unpacks a list of floats faster than an array's scalars.
        pull = radius * math.hypot(*p.tolist())
        bound = float(weights.dot(sorted_offsets[:k])) + float(p.dot(x0)) - pull
        scale = (float(weights.dot(np.abs(sorted_offsets[:k])))
                 + float(size.dot(np.abs(x0))) + radius * math.hypot(*size.tolist()))
        slack = 4.0 * (k + n + 2) * _ROUNDING * scale
        bound -= slack
        if not bound > best:
            break
        best, support = bound, order[:k][weights > 0.0]
        slope = p if pull > slack else None
        if slope is None:
            # p is 0 up to rounding: more rows cannot shrink it.
            break
    if support is None:
        return best, None, None
    # A_S (point + dx) + b_S = s for (dx, s), divided by the largest entry
    # of A: the least-norm solution of an underdetermined system weighs dx
    # against s, and this weighting does not change with the scale of f.
    top = float(np.abs(rows).max()) or 1.0
    system = np.empty((support.size, n + 1))
    np.divide(rows[support], top, out=system[:, :n])
    system[:, n] = -1.0
    step = np.linalg.lstsq(system, -values[support] / top, rcond=None)[0]
    return best, point + step[:n], slope


def _past_the_sphere(point, slope, x0, radius):
    """The point _SLOPE_REACH t along -slope from ``point`` in B(x0,
    radius), where t is the distance at which that ray leaves the ball."""
    # Unit direction by hypot, which neither overflows nor underflows.
    u = slope / -math.hypot(*slope.tolist())
    d = point - x0
    du = float(u.dot(d))
    t = -du + math.sqrt(max(0.0, du * du + radius * radius - float(d.dot(d))))
    return point + (_SLOPE_REACH * t) * u


# An overflowing distance to a vertex gives a grown radius of inf, which
# the range test below rejects.
@np.errstate(over="ignore")
def run_metasteps(
    f: ConvexOracle,
    x0,
    cfg: MetastepConfig,
    *,
    trace: bool = False,
) -> MetastepResult:
    """Repeat metasteps from where the last one points (see bisect_level;
    the last metastep the budget allows cannot end at a vertex):

    - a vertex in ``outside``, a proven witness or an unproven move: at
      the vertex, with radius max(R, 1.5 ||vertex - incumbent||), so
      that the next ball holds the in-ball incumbent.  No oracle call
      is made to choose it;
    - BoundaryReached with no vertex: at the incumbent on the sphere;
    - GlobalOptimumCertified with lb above a finite stop value: at the
      incumbent.  Beyond its ball the status proves only a slope of
      (U - lb) / depth, which a flat f can descend below the stop value.

    Each next radius is then multiplied by cfg.radius_growth.  Stops on
    any other status, once the incumbent value is strictly below
    cfg.stop_when_high_below, or when a recentred metastep fails to
    strictly improve; a move is never a proof.  A metastep that raises
    NonFiniteValue after one has completed, or a next radius whose
    square leaves [1e-300, largest float], ends the run too: the
    completed metasteps' brackets are proven, and only the raising one
    is lost.  At every end the result is the last completed metastep's
    outcome and config, with the iteration counts of every completed
    metastep and their trace records, numbered by metastep.  ``trace``
    is passed to each metastep (see bisect_level).  Raises ValueError
    before the first metastep unless cfg.check_radii() passes.
    """
    cfg.check_radii()
    x, radius = x0, cfg.radius
    last: Optional[MetastepResult] = None
    records: List[TraceRecord] = []
    iterations: List[int] = []
    for k in range(cfg.max_metasteps):
        step_cfg = cfg if radius == cfg.radius else replace(cfg, radius=radius)
        try:
            step = bisect_level(f, x, step_cfg, trace=trace, _witness=k < cfg.max_metasteps - 1)
        except NonFiniteValue:
            if last is None:
                raise
            break
        for rec in step.trace:
            rec.query = k + 1
        records += step.trace
        iterations += step.query_iterations
        previous, last = last, step
        if step.best_value < cfg.stop_when_high_below or (
                previous is not None and step.best_value >= previous.best_value):
            break
        if step.outside is not None:
            # A held vertex centres the next ball, which holds the
            # in-ball incumbent.
            x = step.outside
            radius = max(radius, 1.5 * _distance(x, step.best_point))
        elif step.status is SolveStatus.BOUNDARY_REACHED or (
                step.status is SolveStatus.GLOBAL_OPTIMUM_CERTIFIED
                and step.alpha_bracket[0] > cfg.stop_when_high_below > -math.inf):
            x = step.best_point
        else:
            break
        radius *= cfg.radius_growth
        if not _squares_fit(radius, math.log(radius)):
            break
    return replace(last, trace=records, query_iterations=iterations)
