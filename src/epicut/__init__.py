"""Ellipsoid-based convex feasibility and nonsmooth minimization.

Layers: an ellipsoid engine with central and deep cuts (geometry), convex
function oracles (oracles), a nonnegative least squares kernel (nnls), a
metastep minimizer with proven brackets (solver), linear-inequality
feasibility with Farkas certificates (lp), brute-force reference oracles
(bruteforce), and a CLI (cli).
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
    NonFiniteValue,
    PreconditionViolated,
    SizeLimitExceeded,
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
    decide_feasibility,
    find_feasible_point,
    global_radius,
    normalize,
    subgradient_lower_bound_at,
    validate_certificate,
)
from .oracles import (
    ConvexOracle,
    LinearConstraintSet,
    MaxAffineFunction,
    QuadraticForm,
)
from .solver import (
    MetastepConfig,
    MetastepResult,
    SolveStatus,
    TraceRecord,
    bisect_level,
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
    "FeasibilityDecision",
    "FeasibilityVerdict",
    "Halfspace",
    "LinearConstraintSet",
    "LinearSystem",
    "MaxAffineFunction",
    "MetastepConfig",
    "MetastepResult",
    "NonFiniteValue",
    "OracleFeasibility",
    "PointSearchOutcome",
    "PointSearchResult",
    "PreconditionViolated",
    "QuadraticForm",
    "RadiusBound",
    "SizeLimitExceeded",
    "SolveStatus",
    "TraceRecord",
    "bisect_level",
    "central_cut",
    "decide_feasibility",
    "deep_cut",
    "find_feasible_point",
    "global_radius",
    "intersects_halfspace",
    "normalize",
    "run_metasteps",
    "sample_subgradient_norms",
    "simplex_grid_min",
    "subgradient_lower_bound_at",
    "validate_certificate",
    "vertex_enumerate_feasible",
]
