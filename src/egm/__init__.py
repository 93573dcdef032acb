"""Robust estimation and testing in elliptical graphical models.

Compute graph-constrained scatter estimates (plug-in and graphical
M-estimates), their asymptotic covariances, deviance tests,
partial-correlation inference, and the efficiency of graph-constrained
estimation, with a seeded simulation harness and a CLI front end.

Importing the package loads numpy alone: a function that needs scipy
imports the module it uses where it uses it.
"""

from .covsel import (
    AsymptoticScalars,
    ConstrainedFit,
    concentration_acov,
    constrain_jacobian,
    constrain_scatter,
    constrained_scatter_acov,
    scatter_acov,
)
from .errors import (
    ConvergenceError,
    DefinitenessError,
    DegenerateDataError,
    DimensionError,
    NestingError,
    PreconditionError,
    SampleSizeError,
)
from .graphs import Graph, GraphIndex, build_index, is_chordal, read_graph
from .inference import (
    AreResult,
    DevianceReport,
    are_chordless_cycle,
    asv_partial_correlation,
    backward_elimination,
    chordless_cycle_shape,
    deviance,
    partial_correlation,
    partial_correlation_derivative,
)
from .mest import (
    EstimatorSpec,
    FitResult,
    RadialLaw,
    graphical_m_estimate,
    m_estimate,
    m_scalars,
    make_spec,
    mle_scalars,
    plug_in_estimate,
    sample_cov_scalars,
)
from .simulate import EllipticalModel, StudyReport, deviance_null_study, equivalence_study, sample

__version__ = "0.1.0"
