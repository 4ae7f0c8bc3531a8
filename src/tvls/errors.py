"""Exception and warning types shared across the package, and the number
check behind every numeric field of a model."""

import math

import numpy as np


class TvlsError(Exception):
    """Base class for all package errors."""


class PreconditionError(TvlsError, ValueError):
    """An operation was called with inputs violating its contract."""


class SmoothnessError(PreconditionError):
    """A coefficient function lacks the continuity/differentiability required."""


class ZeroVarianceError(PreconditionError):
    """The driving noise is degenerate (zero variance)."""


class GridMismatchError(PreconditionError):
    """Two sampled grids that must coincide do not."""


class DivergenceError(TvlsError):
    """An iterative scheme failed to converge.

    Carries the sequence of term norms observed so the caller can inspect
    whether the series was diverging or merely slow.
    """

    def __init__(self, message, term_norms=None):
        super().__init__(message)
        self.term_norms = list(term_norms) if term_norms is not None else []


class PostconditionError(TvlsError):
    """A computed result failed its own validation check."""


class TailMassWarning(UserWarning):
    """A truncated grid may be missing non-negligible tail mass."""


class TruncationWarning(UserWarning):
    """An integrand was truncated before it decayed to negligible size."""


def _is_number(x):
    """True for a real number; a bool or a numeric string is not one."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _as_float(x, what):
    """``x`` as a finite float; a PreconditionError naming ``what`` unless
    it is a real number (:func:`_is_number`)."""
    if not _is_number(x):
        raise PreconditionError(f"{what} must be a number, got {x!r}")
    try:
        val = float(x)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise PreconditionError(f"{what} must be finite, got {val!r}")
    return val
