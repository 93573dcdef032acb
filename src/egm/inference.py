"""Deviance tests, model search, and partial-correlation asymptotics.

The deviance of two nested graphs is n times the log-determinant gap of
their constrained completions, divided by the sigma1 scalar of the
scatter estimator in use; it is referred to a chi-square distribution
whose degrees of freedom equal the difference in absent-edge counts.
sigma1 = 1 recovers the classical Gaussian test.

The asymptotic-variance routines for partial correlations never build
p^2 x p^2 matrices: only one row of the partial-correlation derivative
is ever needed, and it has a closed form assembled from p x p pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import chdtrc

from .covsel import (
    AsymptoticScalars,
    _complete,
    constrain_scatter,
    edge_basis_gram,
    pattern_violation,
)
from .errors import (
    ConvergenceError,
    DefinitenessError,
    DimensionError,
    NestingError,
    PreconditionError,
    _results,
)
from .graphs import Graph, GraphIndex, build_index
from .linops import check_spd, spd_inverse
from .mest import EstimatorSpec, _positive, graphical_m_estimate, m_estimate, scalars_for

__all__ = [
    "DevianceReport",
    "AreResult",
    "deviance",
    "backward_elimination",
    "resolve_sigma1",
    "partial_correlation",
    "partial_correlation_derivative",
    "chordless_cycle_shape",
    "asv_partial_correlation",
    "are_chordless_cycle",
]


@dataclass(frozen=True)
class DevianceReport:
    """Result of a nested deviance test."""

    statistic: float
    df: int
    sigma1_used: float
    p_value: float
    n: int

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
            "sigma1": self.sigma1_used,
            "n": self.n,
        }


@dataclass(frozen=True)
class AreResult:
    """Asymptotic relative efficiency of constrained vs plain estimation."""

    p: int
    c: float
    asv_unconstrained: float
    asv_constrained: float
    are: float

    def __post_init__(self):
        if self.are < 1.0 - 1e-10:
            raise PreconditionError(f"efficiency ratio {self.are} fell below 1")


def _logdet(A):
    """log det A, per slice of a stack; raises unless every determinant is positive."""
    sign, val = np.linalg.slogdet(A)
    if np.any(sign <= 0):
        raise DefinitenessError("log-determinant of a non-positive-definite matrix")
    return val


def deviance(S_hat, index0: GraphIndex, index1: GraphIndex, n: int,
             sigma1: float = 1.0, completion_tol: float = 1e-10) -> DevianceReport:
    """Deviance test of the smaller model ``index0`` inside ``index1``.

    Requires the edge set of graph 0 to be a proper subset of graph 1's.
    The statistic is clamped at zero against completion round-off; it is
    exactly zero when the inverse of ``S_hat`` already carries graph 0's
    zero pattern.
    """
    _check_nesting(index0, index1, sigma1)
    S_hat = check_spd(S_hat)
    stat, = _deviance_stack(S_hat[None], index0, index1, n, sigma1, completion_tol)
    df = index0.q - index1.q
    return DevianceReport(stat, df, sigma1, float(chdtrc(df, stat)), n)


def _check_nesting(index0: GraphIndex, index1: GraphIndex, sigma1: float) -> None:
    G0, G1 = index0.graph, index1.graph
    if G0.p != G1.p:
        raise NestingError("graphs are on different vertex sets")
    if not (G0.edges < G1.edges):
        extra = sorted(G0.edges - G1.edges)
        if extra:
            raise NestingError(f"graphs are not nested: edges {extra} missing from the larger model")
        raise NestingError("nesting must be proper: the null graph equals the alternative")
    _positive(sigma1, "sigma1")


def _deviance_stack(S, index0: GraphIndex, index1: GraphIndex, n: int,
                    sigma1: float, completion_tol: float) -> list:
    """The clamped deviance statistic of each slice of an (R, p, p) stack of
    scatter estimates, for graphs already checked to be properly nested;
    raises what :func:`deviance` raises for the first slice that fails."""
    ld = [_logdet(np.array([f.matrix for f in _results(_complete(S, index, completion_tol))]))
          for index in (index0, index1)]
    return [max(0.0, n * (float(a) - float(b)) / sigma1) for a, b in zip(*ld)]


def resolve_sigma1(spec: EstimatorSpec, p: int, sigma1, family) -> float:
    """The explicit ``sigma1`` if given (finite and > 0), else the scalar of
    ``spec`` at the data ``family``, else 1 for the Gaussian estimator."""
    if sigma1 is not None:
        return _positive(float(sigma1), "sigma1")
    if family is not None:
        return scalars_for(spec, family, p).sigma1
    if spec.name == "gaussian":
        return 1.0
    raise PreconditionError(
        "sigma1 is required for a non-gaussian estimator: pass sigma1 or a data family")


def backward_elimination(X, spec: EstimatorSpec, alpha: float,
                         sigma1: Optional[float] = None,
                         family: Optional[str] = None,
                         refit: bool = False,
                         tol: float = 1e-9,
                         completion_tol: float = 1e-10):
    """Backward model search by repeated single-edge deviance tests.

    Starting from the complete graph, each step tests every single-edge
    removal from the current graph and deletes the edge with the
    smallest deviance, unless that deviance is already significant at
    level ``alpha``.  By default the unconstrained estimate is computed
    once and candidates are scored by constrained completion of it;
    ``refit=True`` refits the graphical M-estimator per candidate
    instead (slow, for comparison).

    Returns the final graph and a per-step audit trail.
    """
    if not 0.0 <= alpha <= 1.0:
        raise PreconditionError(f"alpha must be in [0, 1], got {alpha}")
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    s1 = resolve_sigma1(spec, p, sigma1, family)

    try:
        fit = m_estimate(X, spec, tol=tol)
    except ConvergenceError as exc:
        exc.steps = []
        exc.graph = Graph.complete(p)
        raise
    S = fit.scatter

    def logdet_for(graph: Graph) -> float:
        index = build_index(graph)
        if refit:
            return float(_logdet(graphical_m_estimate(X, index, spec, tol=tol).scatter))
        return float(_logdet(constrain_scatter(S, index, tol=completion_tol).matrix))

    current = Graph.complete(p)
    ld_cur = logdet_for(current)
    steps = []
    while current.edges:
        best = None
        for e in current.sorted_edges():
            try:
                ld = logdet_for(current.without_edge(*e))
            except ConvergenceError as exc:
                # keep the audit trail of the steps completed so far
                wrapped = ConvergenceError(
                    f"estimator failed at step {len(steps) + 1} while testing "
                    f"removal of edge {e}: {exc}", residual=exc.residual)
                wrapped.steps = steps
                wrapped.graph = current
                raise wrapped from exc
            stat = max(0.0, n * (ld - ld_cur) / s1)
            if best is None or (stat, e) < (best[0], best[1]):
                best = (stat, e, ld)
        stat, edge, ld = best
        p_value = float(chdtrc(1, stat))
        if p_value <= alpha:
            break
        current = current.without_edge(*edge)
        ld_cur = ld
        steps.append({"removed_edge": list(edge), "deviance_delta": stat, "p_value": p_value})
    return current, steps


def partial_correlation(K) -> np.ndarray:
    """Matrix of pairwise partial correlations from a concentration matrix.

    Entry (i, j), i != j, is the partial correlation of components i and
    j given all others; the diagonal is -1 by the defining formula
    -K_D^{-1/2} K K_D^{-1/2}.
    """
    K = np.asarray(K, dtype=float)
    d = np.diag(K)
    if np.any(d <= 0):
        raise DefinitenessError("concentration matrix has a non-positive diagonal")
    s = 1.0 / np.sqrt(d)
    return -(s[:, None] * K * s[None, :])


def partial_correlation_derivative(A) -> np.ndarray:
    """Dense p^2 x p^2 derivative of the partial-correlation map at A.

    Row (i, j), in vec order, is vec of :func:`_dpi_row_matrix` at (i, j).
    """
    A = check_spd(A)
    p = A.shape[0]
    j, i = np.divmod(np.arange(p * p), p)
    return _dpi_row_matrix(A, i, j).transpose(0, 2, 1).reshape(p * p, p * p)


def _dpi_row_matrix(K, i, j) -> np.ndarray:
    """Row (i, j) of the partial-correlation derivative at K, in matrix form.

    The row, reshaped to p x p, is

        -(pi_ij / (2 K_ii)) E_ii - (pi_ji / (2 K_jj)) E_jj
        - (E_ij + E_ji) / (2 sqrt(K_ii K_jj)),

    a symmetric matrix built without any p^2 x p^2 intermediate.  With
    index arrays i and j the rows come as a stack, one matrix per pair.
    """
    p = K.shape[0]
    d = np.diag(K)
    pi_ij = -K[i, j] / np.sqrt(d[i] * d[j])
    half = 0.5 / np.sqrt(d[i] * d[j])
    i, j = np.asarray(i), np.asarray(j)
    X = np.zeros(i.shape + (p, p))
    at = np.arange(i.size).reshape(i.shape)
    for rows, cols, value in ((i, i, 0.5 * pi_ij / d[i]), (j, j, 0.5 * pi_ij / d[j]),
                              (i, j, half), (j, i, half)):
        # accumulated in this order, as the diagonal rows (i = j) need
        np.subtract.at(X.reshape(-1, p, p), (at, rows, cols), value)
    return X


def asv_partial_correlation(V, index: Optional[GraphIndex],
                            scalars: AsymptoticScalars, position) -> float:
    """Asymptotic variance of one estimated partial correlation.

    With ``index`` None the estimate comes from the unconstrained
    scatter; otherwise from the graph-constrained one, which requires
    the inverse of V to carry the graph's zero pattern.  ``position`` is
    a 1-based (i, j) pair with i != j.
    """
    V = check_spd(V)
    p = V.shape[0]
    scalars.check_bounds(p)
    i, j = position
    if not (1 <= i <= p and 1 <= j <= p) or i == j:
        raise DimensionError(f"position {position} is not an off-diagonal entry of a {p}x{p} matrix")
    K = spd_inverse(V)
    X = _dpi_row_matrix(K, i - 1, j - 1)
    if index is None:
        return float(2.0 * scalars.sigma1 * np.sum(X * (K @ X @ K)))
    if pattern_violation(V, index) > 1e-8:
        raise PreconditionError("inverse of V violates the graph zero pattern")
    j, i = np.divmod(index.K, p)
    w = np.where(i == j, X[i, i], X[i, j] + X[j, i])
    Gm = edge_basis_gram(V, index)
    return float(2.0 * scalars.sigma1 * w @ np.linalg.solve(Gm, w))


def chordless_cycle_shape(p: int, c: float):
    """Concentration and shape matrix of the equal-correlation cycle model.

    The concentration matrix is the circulant with unit diagonal and -c
    at the cycle-adjacent positions, so every partial correlation along
    the cycle equals c.  Its eigenvalues are 1 - 2c cos(2 pi k / p),
    positive exactly when |c| < 1/2.
    """
    if p < 4:
        raise PreconditionError(f"the chordless cycle model needs p >= 4, got {p}")
    if abs(c) >= 0.5:
        raise DefinitenessError(f"|c| = {abs(c)} >= 1/2 makes the cycle concentration singular")
    K = np.eye(p)
    for i in range(p):
        K[i, (i + 1) % p] = -c
        K[(i + 1) % p, i] = -c
    return K, spd_inverse(K)


def are_chordless_cycle(p: int, c: float) -> AreResult:
    """Efficiency of the cycle-constrained partial-correlation estimator.

    The ratio of unconstrained to constrained asymptotic variance at
    edge (1, 2); it does not depend on sigma1, sigma2 or the scale of
    the shape matrix.
    """
    K, S = chordless_cycle_shape(p, c)
    index = build_index(Graph.cycle(p))
    unit = AsymptoticScalars(1.0, 0.0, 1.0)
    asv_u = asv_partial_correlation(S, None, unit, (1, 2))
    asv_c = asv_partial_correlation(S, index, unit, (1, 2))
    return AreResult(p, c, asv_u, asv_c, asv_u / asv_c)
