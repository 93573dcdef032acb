"""Exception types shared across the package, and the rule that turns a
stacked call's per-slice failures into a raise."""


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
