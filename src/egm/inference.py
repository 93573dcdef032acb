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

from .covsel import _PATTERN_TOL, AsymptoticScalars, _complete, _off_pattern, edge_basis_gram
from .errors import (
    ConvergenceError,
    DefinitenessError,
    DimensionError,
    NestingError,
    PreconditionError,
    _check_size,
    _positive,
    _results,
)
from .graphs import Graph, GraphIndex, build_index
from .linops import _cholesky_logdet, check_spd, spd_inverse
from .mest import (_COMPLETION_TOL, EstimatorSpec, _check_spec, _validate_data, m_estimate,
                   scalars_for)

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


def deviance(S_hat, index0: GraphIndex, index1: GraphIndex, n: int,
             sigma1: float = 1.0) -> DevianceReport:
    """Deviance test of the smaller model ``index0`` inside ``index1``.

    Requires the edge set of graph 0 to be a proper subset of graph 1's.
    Both completions run to 1e-10.  The statistic is clamped at zero
    against completion round-off; it is exactly zero when the inverse of
    ``S_hat`` already carries graph 0's zero pattern.
    """
    _check_nesting(index0, index1, sigma1)
    _check_size(n)
    from scipy.special import chdtrc
    S_hat = check_spd(S_hat)
    stat, = _results(_deviance_stack(S_hat[None], index0, index1, n, sigma1))
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


def _deviance_stack(S, index0: GraphIndex, index1: GraphIndex, n: int, sigma1: float) -> list:
    """Per slice of an (R, p, p) stack of scatter estimates, for graphs
    already checked to be properly nested: the clamped deviance statistic,
    or the ConvergenceError that :func:`deviance` raises for that slice.
    One completion call serves both graphs."""
    masks = np.repeat(np.array([index0.k_mask, index1.k_mask]), len(S), axis=0)
    ld = _logdets(_complete(np.concatenate([S, S]), masks, _COMPLETION_TOL), S.shape[-1])
    return [a if isinstance(a, Exception) else b if isinstance(b, Exception)
            else max(0.0, n * (a - b) / sigma1) for a, b in zip(ld[:len(S)], ld[len(S):])]


def _logdets(fits, p: int) -> list:
    """Per completion outcome: its error, else its log det by a Cholesky factor, else an error."""
    ld = _cholesky_logdet(np.array([getattr(f, "matrix", np.eye(p)) for f in fits]))
    lost = "a completed matrix has no Cholesky factor for its log-determinant"
    return [f if isinstance(f, Exception) else float(x) if np.isfinite(x)
            else ConvergenceError(lost) for f, x in zip(fits, ld)]


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


def _removal_bounds(W, i, j):
    """The bounds of :func:`backward_elimination` on the log-det gain of removing
    each edge (i[r], j[r]), 0-based, from the graph completed by W; and W^-1."""
    U = spd_inverse(W)
    u, d = U[i, j], np.diag(U)
    a, b = u * W[i, j], u * u * W[i, i] * W[j, j]
    q, upper = (1.0 - a) ** 2 - b, np.full(len(u), np.inf)
    upper[q > 0.0] = -np.log(q[q > 0.0]) - 2.0 * a[q > 0.0]
    return -np.log1p(-u * u / (d[i] * d[j])), upper, U


def backward_elimination(X, spec: EstimatorSpec, alpha: float,
                         sigma1: Optional[float] = None,
                         family: Optional[str] = None,
                         tol: float = 1e-9):
    """Backward model search by repeated single-edge deviance tests.

    Starting from the complete graph, each step deletes the edge whose
    removal has the smallest deviance, n / sigma1 times the log-det gain of
    its completion of the unconstrained estimate S over the current graph's
    completion W, unless that deviance is significant at level ``alpha``.
    With U = W^-1 and u = U_ij, removing (i, j) gains at least
    -log(1 - u^2 / (U_ii U_jj)), the best point of W + t(E_ij + E_ji) (exact
    at the complete graph; Whittaker 1990, ch. 6), and at most
    -log((1 - a)^2 - b) - 2a, a = u W_ij, b = u^2 W_ii W_jj: the dual value
    (Dempster 1972) at U - u(E_ij + E_ji), positive definite exactly where
    1 - a > sqrt(b), that is where (1 - a)^2 > b, as |a| <= sqrt(b); elsewhere
    inf.  One stacked completion per step, started at W, scores every
    removal whose lower bound is within a margin of the least upper bound;
    no other can win.  The margin, 8e-10 sum_ij |U_ij| d_i d_j + 1e-9 (1 +
    least upper bound) with d = sqrt(diag S), covers rounding and the
    completions' error: they hold S within 1e-10 d_i d_j on their fixed
    entries, moving a log det by about 1e-10 sum_ij |U_ij| d_i d_j.
    So each step's edge, deviance and stop are those of scoring them all.

    Returns the final graph and a per-step audit trail.  A ConvergenceError
    carries the steps completed so far as ``steps`` and the graph they
    reached as ``graph``.  A candidate completion that runs out of steps or
    loses positive definiteness fails the search "while testing removal of
    edge (a, b)".
    """
    if not 0.0 <= alpha <= 1.0:
        raise PreconditionError(f"alpha must be in [0, 1], got {alpha}")
    X = _validate_data(X)
    n, p = X.shape
    _check_spec(spec, p)
    s1 = resolve_sigma1(spec, p, sigma1, family)

    from scipy.special import chdtrc
    # the complete graph's completion is the estimate itself
    current, k_mask, steps = Graph.complete(p), np.ones((p, p), dtype=bool), []
    try:
        W = S = m_estimate(X, spec, tol=tol).scatter
        ld_cur, d = float(_cholesky_logdet(S[None])[0]), np.sqrt(np.diag(S))
        while current.edges:
            edges = current.sorted_edges()
            i, j = np.array(edges).T - 1
            lower, upper, U = _removal_bounds(W, i, j)
            margin = 8.0 * _COMPLETION_TOL * (d @ np.abs(U) @ d) + 1e-9 * (1.0 + upper.min())
            keep = np.flatnonzero(~(lower > upper.min() + margin))  # a nan bound is kept
            masks, at = np.repeat(k_mask[None], len(keep), axis=0), np.arange(len(keep))
            masks[at, i[keep], j[keep]] = masks[at, j[keep], i[keep]] = False
            fits = _complete(np.broadcast_to(S, masks.shape), masks, _COMPLETION_TOL,
                             start=np.broadcast_to(W, masks.shape))
            ld = _logdets(fits, p)
            for r, f in zip(keep, ld):
                if isinstance(f, ConvergenceError):
                    raise ConvergenceError(
                        f"estimator failed at step {len(steps) + 1} while testing "
                        f"removal of edge {edges[r]}: {f}", residual=f.residual) from f
            stat, (a, b), r = min((max(0.0, n * (x - ld_cur) / s1), edges[k], r)
                                  for r, (k, x) in enumerate(zip(keep, ld)))
            p_value = float(chdtrc(1, stat))
            if p_value <= alpha:
                break
            current = current.without_edge(a, b)
            k_mask[a - 1, b - 1] = k_mask[b - 1, a - 1] = False
            ld_cur, W = ld[r], fits[r].matrix  # the next step's candidates start at W
            steps.append({"removed_edge": [a, b], "deviance_delta": stat, "p_value": p_value})
    except ConvergenceError as exc:
        # keep the audit trail of the steps completed so far
        exc.steps, exc.graph = steps, current
        raise
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

    a symmetric matrix built without any p^2 x p^2 intermediate.  Index
    arrays i and j, or an (R, p, p) stack of K, give a stack of rows.
    """
    p = K.shape[-1]
    d = np.diagonal(K, axis1=-2, axis2=-1)
    i, j = np.asarray(i), np.asarray(j)
    pi_ij = -K[..., i, j] / np.sqrt(d[..., i] * d[..., j])
    half = 0.5 / np.sqrt(d[..., i] * d[..., j])
    X = np.zeros(pi_ij.shape + (p, p))
    at = np.arange(pi_ij.size).reshape(pi_ij.shape)
    for rows, cols, value in ((i, i, 0.5 * pi_ij / d[..., i]), (j, j, 0.5 * pi_ij / d[..., j]),
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
    a 1-based (i, j) pair with i != j.  A stack of one of :func:`_asv_stack`.
    """
    V = check_spd(V)
    p = V.shape[0]
    scalars.check_bounds(p)
    i, j = position
    if not (1 <= i <= p and 1 <= j <= p) or i == j:
        raise DimensionError(f"position {position} is not an off-diagonal entry of a {p}x{p} matrix")
    return _asv_stack(V[None], spd_inverse(V[None]), index, scalars.sigma1, i - 1, j - 1)[0]


def _asv_stack(V, K, index: Optional[GraphIndex], sigma1: float, i: int, j: int) -> list:
    """:func:`asv_partial_correlation`, one float per slice of an (R, p, p)
    stack of checked V with inverses K, under one graph or none, at one
    0-based position i != j: 2 sigma1 <X, K X K> for the derivative row X,
    or 2 sigma1 w^T G^-1 w, w = X on the graph and G its edge-basis Gram."""
    X = _dpi_row_matrix(K, i, j)
    if index is None:
        return [float(2.0 * sigma1 * np.sum(x * y)) for x, y in zip(X, K @ X @ K)]
    if V.shape[1:] != index.k_mask.shape:
        raise DimensionError(f"graph has p={index.p} but V is {'x'.join(map(str, V.shape[1:]))}")
    if np.any(_off_pattern(K, V, index.d_mask) > _PATTERN_TOL):
        raise PreconditionError("inverse of V violates the graph zero pattern")
    c, r = np.divmod(index.K, index.p)
    w = np.where(r == c, X[:, r, r], X[:, r, c] + X[:, c, r])
    x = np.linalg.solve(edge_basis_gram(V, index), w[..., None])[..., 0]
    return [float(2.0 * sigma1 * a @ b) for a, b in zip(w, x)]


def _check_cycles(ps, cs) -> None:
    """The checks of :func:`chordless_cycle_shape` on each (p, c) cell, c by
    c, so the first bad cell in table row order raises; a nan c is bad."""
    for c in cs:
        for p in ps:
            if p < 4:
                raise PreconditionError(f"the chordless cycle model needs p >= 4, got {p}")
            if not abs(c) < 0.5:
                raise DefinitenessError(
                    f"|c| = {abs(c)} >= 1/2 makes the cycle concentration singular")


def _cycle_shapes(p: int, cs):
    """The stacks K and S of :func:`chordless_cycle_shape` at each c of ``cs``, checked first."""
    _check_cycles([p], cs)
    K, at = np.repeat(np.eye(p)[None], len(cs), axis=0), np.arange(p)
    K[:, at, (at + 1) % p] = K[:, (at + 1) % p, at] = np.array([[-c] for c in cs])
    return K, spd_inverse(K)


def chordless_cycle_shape(p: int, c: float):
    """Concentration and shape matrix of the equal-correlation cycle model.

    The concentration matrix is the circulant with unit diagonal and -c
    at the cycle-adjacent positions, so every partial correlation along
    the cycle equals c.  Its eigenvalues are 1 - 2c cos(2 pi k / p),
    positive exactly when |c| < 1/2.
    """
    return tuple(M[0] for M in _cycle_shapes(p, [c]))


def are_chordless_cycle(p: int, c: float) -> AreResult:
    """Efficiency of the cycle-constrained partial-correlation estimator.

    The ratio of unconstrained to constrained asymptotic variance at
    edge (1, 2); it does not depend on sigma1, sigma2 or the scale of
    the shape matrix.  A stack of one of :func:`_are_cycle_table`.
    """
    return _are_cycle_table(p, [c])[0]


def _are_cycle_table(p: int, cs) -> list:
    """:func:`are_chordless_cycle` at each c of ``cs``, checked before any is
    computed, by one graph index, one stacked inverse K of the shapes, which
    also serves the pattern check, and both variances, each cell to the bit."""
    S = _cycle_shapes(p, cs)[1]
    K = spd_inverse(S)
    u, g = (_asv_stack(S, K, index, 1.0, 0, 1) for index in (None, build_index(Graph.cycle(p))))
    return [AreResult(p, c, a, b, a / b) for c, a, b in zip(cs, u, g)]
