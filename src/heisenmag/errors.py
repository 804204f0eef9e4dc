"""Exception hierarchy shared by all heisenmag modules."""

import math


class HeisenmagError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HeisenmagError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(HeisenmagError, RuntimeError):
    """An iterative method failed to reach its target accuracy."""


class BranchConsistencyError(HeisenmagError, RuntimeError):
    """A closed-form branch constant does not reproduce the initial data.

    Signals a wrong inverse-function branch or a root-solver failure.
    """


class IntervalError(HeisenmagError, RuntimeError):
    """Neither admissible root bracket contains the evaluation point."""


class LambdaNotFoundError(HeisenmagError):
    """No lattice-periodic trajectory exists for the requested element."""


def check_finite(**values: float) -> None:
    """Raise DomainError for the first named value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
