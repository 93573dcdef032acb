"""Exception types shared across the package, the one check of each kind of
argument, and the rule that turns a stacked call's per-slice failures into a raise."""

import numpy as np


class DimensionError(ValueError):
    """Shapes or lengths of inputs do not match."""


class DefinitenessError(ValueError):
    """A matrix that must be positive definite is not."""


class SampleSizeError(ValueError):
    """Too few observations for the requested estimator."""


class DegenerateDataError(ValueError):
    """Data not in general position (rank deficient)."""


class NestingError(ValueError):
    """Graphs passed to a nested test are not properly nested."""


class PreconditionError(ValueError):
    """An input violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget or lost
    positive definiteness on the way.

    Carries the last residual so callers can inspect how close the
    iteration got; a loss of definiteness has no residual and is
    chained to the linear-algebra error that exposed it.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _results(outcomes: list) -> list:
    """The per-slice outcomes of a stacked kernel call, each a result or an
    exception: raises the first exception, else returns the results."""
    for x in outcomes:
        if isinstance(x, Exception):
            raise x
    return outcomes


def _integer(x, least: int) -> bool:
    """Is ``x`` an integer, not a bool, and >= ``least``?"""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= least


def _positive(x: float, what: str) -> float:
    """``x`` if it is finite and > 0, else PreconditionError naming ``what``."""
    if not 0.0 < x < np.inf:
        raise PreconditionError(f"{what} must be finite and > 0, got {x}")
    return x


def _check_budget(tol: float, max_iter: int, unit: str) -> None:
    """PreconditionError unless tol is finite and > 0 and max_iter an integer >= 1."""
    _positive(tol, "tol")
    if not _integer(max_iter, 1):
        raise PreconditionError(
            f"max_iter must be an integer budget of at least one {unit}, got {max_iter!r}")


def _check_size(n) -> None:
    """PreconditionError naming n unless it is an integer >= 1."""
    if not _integer(n, 1):
        raise PreconditionError(f"sample size n must be an integer >= 1, got n={n!r}")
