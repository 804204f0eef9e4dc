"""Exception hierarchy shared by all heisenmag modules."""

import math

import numpy as np

__all__ = [
    "HeisenmagError",
    "DomainError",
    "ConvergenceError",
    "BranchConsistencyError",
    "IntervalError",
    "LambdaNotFoundError",
    "check_finite",
]


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


def check_finite(**values) -> None:
    """Raise DomainError for the first named value (a float, or an array of
    them) that is or holds a NaN or an infinity, is an int past the float
    range, or is complex (np.isfinite(1j) holds, so it is named not real)."""
    for name, value in values.items():
        if isinstance(value, complex) or isinstance(value, np.ndarray) and value.dtype.kind == "c":
            raise DomainError(f"{name} must be real, got {value}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int that no float holds
            finite = False
        except TypeError:  # an array of more than one value
            finite = bool(np.isfinite(value).all())
        if not finite:
            raise DomainError(f"{name} must be finite, got {value}")
