"""Ellipsoid-based convex feasibility and nonsmooth minimization.

Layers: an ellipsoid engine with central and deep cuts (geometry), convex
function oracles (oracles), a lifted level-set metastep solver (solver),
linear-inequality feasibility with Farkas certificates (lp), brute-force
reference oracles (bruteforce), and a CLI (cli).
"""

from .bruteforce import (
    OracleFeasibility,
    sample_subgradient_norms,
    simplex_grid_min,
    vertex_enumerate_feasible,
)
from .errors import (
    DegenerateShape,
    DimensionMismatch,
    EmptySystem,
    InvalidBracket,
    PreconditionViolated,
    SizeLimitExceeded,
    SolverBudgetExceeded,
    StrictFeasibilityViolated,
)
from .geometry import (
    CutKind,
    CutOutcome,
    Ellipsoid,
    Halfspace,
    central_cut,
    deep_cut,
    intersects_halfspace,
)
from .lp import (
    FeasibilityDecision,
    FeasibilityVerdict,
    LinearSystem,
    PointSearchOutcome,
    PointSearchResult,
    RadiusBound,
    RadiusMethod,
    decide_feasibility,
    find_feasible_point,
    global_radius,
    normalize,
    subgradient_lower_bound_at,
    validate_certificate,
)
from .oracles import (
    ConvexOracle,
    EpigraphPoint,
    LinearConstraintSet,
    MaxAffineFunction,
    QuadraticForm,
    epigraph_separator,
)
from .solver import (
    LevelFeasibility,
    LevelVerdict,
    MetastepConfig,
    MetastepResult,
    SolveStatus,
    TraceRecord,
    bisect_level,
    choose_cut_depth,
    level_set_feasible,
    run_metasteps,
)

__version__ = "0.1.0"

__all__ = [
    "CutKind",
    "CutOutcome",
    "ConvexOracle",
    "DegenerateShape",
    "DimensionMismatch",
    "Ellipsoid",
    "EmptySystem",
    "EpigraphPoint",
    "FeasibilityDecision",
    "FeasibilityVerdict",
    "Halfspace",
    "InvalidBracket",
    "LevelFeasibility",
    "LevelVerdict",
    "LinearConstraintSet",
    "LinearSystem",
    "MaxAffineFunction",
    "MetastepConfig",
    "MetastepResult",
    "OracleFeasibility",
    "PointSearchOutcome",
    "PointSearchResult",
    "PreconditionViolated",
    "QuadraticForm",
    "RadiusBound",
    "RadiusMethod",
    "SizeLimitExceeded",
    "SolveStatus",
    "SolverBudgetExceeded",
    "StrictFeasibilityViolated",
    "TraceRecord",
    "bisect_level",
    "central_cut",
    "choose_cut_depth",
    "decide_feasibility",
    "deep_cut",
    "epigraph_separator",
    "find_feasible_point",
    "global_radius",
    "intersects_halfspace",
    "level_set_feasible",
    "normalize",
    "run_metasteps",
    "sample_subgradient_norms",
    "simplex_grid_min",
    "subgradient_lower_bound_at",
    "validate_certificate",
    "vertex_enumerate_feasible",
]
