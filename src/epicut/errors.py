"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


class DegenerateShape(RuntimeError):
    """An ellipsoid shape matrix lost positive definiteness."""


class PreconditionViolated(ValueError):
    """An input fails a documented precondition of the routine."""


class EmptySystem(ValueError):
    """A constraint system has no rows left after normalization.

    Nothing in the package raises it: normalize keeps every row.  It
    stays importable because benchmark/workloads.py imports it.
    """


class NonFiniteValue(ArithmeticError):
    """An oracle returned a value that is not a finite number."""


class SizeLimitExceeded(ValueError):
    """Problem too large for an exhaustive reference oracle."""
