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
    range, is complex (np.isfinite(1j) holds, so it is named not real), or
    is no number at all.  A float takes one math.isfinite and an ndarray one
    np.isfinite; any other value, a numeric list included, is read as a
    number first and as an array where it is none."""
    for name, value in values.items():
        if type(value) is float:
            finite = math.isfinite(value)
        elif isinstance(value, np.ndarray):
            finite = _all_finite(name, value)
        elif isinstance(value, (complex, np.complexfloating)):
            raise DomainError(f"{name} must be real, got {value}")
        else:
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int that no float holds
                finite = False
            except TypeError:  # a sequence, or no number
                finite = _all_finite(name, value)
        if not finite:
            raise DomainError(f"{name} must be finite, got {value}")


def _all_finite(name: str, value) -> bool:
    """Whether value, an ndarray or what np.asarray makes one of, holds only finite reals."""
    array = np.asarray(value)
    if array.dtype.kind == "c":
        raise DomainError(f"{name} must be real, got {value}")
    try:
        return bool(np.isfinite(array).all())
    except TypeError:  # strings, None, objects: np.isfinite takes none of them
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
