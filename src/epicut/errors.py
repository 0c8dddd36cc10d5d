"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


class DegenerateShape(RuntimeError):
    """An ellipsoid shape matrix lost positive definiteness."""


class PreconditionViolated(ValueError):
    """An input fails a documented precondition of the routine."""


class EmptySystem(ValueError):
    """A constraint system has no rows left after normalization."""


class SolverBudgetExceeded(RuntimeError):
    """The inner solver returned no usable witness within its budget."""


class SizeLimitExceeded(ValueError):
    """Problem too large for an exhaustive reference oracle."""
