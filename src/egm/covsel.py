"""Graph-constrained scatter completion and its asymptotic covariances.

Given an SPD matrix A and a graph G, :func:`constrain_scatter` computes
the unique SPD matrix that agrees with A on edges and the diagonal while
its inverse vanishes on the absent edges.  The solver is clique-wise
iterative proportional scaling on the concentration matrix, which
converges for arbitrary (also non-decomposable) graphs.  It runs on
(R, p, p) stacks, so M-estimation and the studies complete many matrices
per LAPACK call; each slice stops sweeping when it would stop alone, and
a single completion is a stack of one.  A slice that runs out of sweeps
gets its own ConvergenceError while the others go on; any other failure,
such as a non-SPD input or a lost definiteness, raises for the whole
stack, with the error the failing slice raises alone.

The analytic derivative of that map and the asymptotic covariances built
from it are dense p^2 x p^2 (resp. (m-q) x (m-q)) matrices, assembled from
p x p pieces by :func:`_pair` without any Kronecker or selection matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConvergenceError, DimensionError, PreconditionError, _results
from .graphs import GraphIndex
from .linops import check_spd, spd_inverse, vec

__all__ = [
    "AsymptoticScalars",
    "ConstrainedFit",
    "constrain_scatter",
    "constrain_jacobian",
    "scatter_acov",
    "constrained_scatter_acov",
    "concentration_acov",
    "edge_basis_gram",
    "pattern_violation",
]

#: condition number beyond which a conditioning warning is attached
COND_WARN = 1e12


@dataclass(frozen=True)
class AsymptoticScalars:
    """The scalar triple (sigma1, sigma2, eta) of a scatter estimator.

    sigma1 and sigma2 parametrize the asymptotic covariance of the
    estimator at an elliptical distribution; eta is the scale factor
    relating the estimator's limit to the shape matrix.
    """

    sigma1: float
    sigma2: float
    eta: float = 1.0

    def __post_init__(self):
        if not np.isfinite([self.sigma1, self.sigma2, self.eta]).all():
            raise PreconditionError(f"asymptotic scalars must be finite, got {self}")
        if self.sigma1 < 0:
            raise PreconditionError(f"sigma1 must be >= 0, got {self.sigma1}")
        if self.eta <= 0:
            raise PreconditionError(f"eta must be > 0, got {self.eta}")

    def check_bounds(self, p: int, slack: float = 1e-12) -> None:
        """Validate sigma2 >= -2*sigma1/p for dimension p."""
        if self.sigma2 < -2.0 * self.sigma1 / p - slack:
            raise PreconditionError(
                f"sigma2={self.sigma2} below the admissible bound {-2.0 * self.sigma1 / p} for p={p}"
            )


@dataclass
class ConstrainedFit:
    """Result of a constrained-scatter completion.

    ``residual`` is the max-abs violation of the two defining conditions
    (entry match on edges/diagonal, inverse zeros on absent edges);
    ``residual_history`` holds one value per completed sweep.
    """

    matrix: np.ndarray
    iterations: int
    residual: float
    residual_history: list = field(default_factory=list)
    condition_warning: bool = False


def _residual(Sigma, Kmat, A, index: GraphIndex) -> np.ndarray:
    """Max-abs violation of the two defining conditions, per slice of the stacks."""
    res = np.max(np.abs((Sigma - A)[:, index.k_mask]), axis=1)
    if index.d_mask.any():
        res = np.maximum(res, np.max(np.abs(Kmat[:, index.d_mask]), axis=1))
    return res


def constrain_scatter(A, index: GraphIndex, tol: float = 1e-10,
                      max_iter: int = 10_000) -> ConstrainedFit:
    """Complete A to the graph-constrained scatter matrix.

    Parameters
    ----------
    A : (p, p) array_like
        Symmetric positive definite input.
    index : GraphIndex
        Graph machinery from :func:`egm.graphs.build_index`.
    tol : float
        Bound on the max-abs violation of the defining conditions.
    max_iter : int
        Maximum number of full clique sweeps.

    Returns
    -------
    ConstrainedFit
        The completed matrix plus convergence diagnostics.

    Raises
    ------
    DefinitenessError
        If A is not SPD.
    ConvergenceError
        If the sweep budget is exhausted; carries the last residual.

    Notes
    -----
    One sweep updates, for every maximal clique C, the C-block of the
    concentration matrix so that the implied scatter marginal matches
    A on C.  The concentration iterate keeps exact zeros at absent-edge
    positions throughout, so only the entry-match part of the residual
    is ever nonzero.
    """
    fit, = _results(_complete(check_spd(A)[None], index, tol, max_iter))
    return fit


def _complete(A, index: GraphIndex, tol: float, max_iter: int = 10_000) -> list:
    """:func:`constrain_scatter` on each slice of an (R, p, p) stack, with its
    checks, warning and early exits; one ConstrainedFit, or the
    ConvergenceError of a slice that runs out of sweeps, per slice.  One IPS
    call serves the whole stack."""
    if A.shape[1:] != (index.p, index.p):
        raise PreconditionError(f"matrix is {A.shape[1:]} but the graph has p={index.p}")
    A = check_spd(A)
    cond = np.linalg.cond(A) > COND_WARN
    for _ in range(np.count_nonzero(cond)):
        warnings.warn("input matrix has condition number above 1e12", RuntimeWarning)
    # a complete graph, or a compliant input, is its own completion
    if index.q == 0:
        res0, done = np.zeros(len(A)), np.full(len(A), True)
    else:
        res0 = _residual(A, spd_inverse(A), A, index)
        done = res0 <= tol
    out = [ConstrainedFit(A[i].copy(), 0, float(res0[i]), [float(res0[i])], bool(cond[i]))
           if done[i] else None for i in range(len(A))]
    todo = np.flatnonzero(~done)
    if todo.size:
        _, W, history, errors = _ips(A[todo], index, tol, max_iter)
        for i, t in enumerate(todo):
            out[t] = errors.get(i) or ConstrainedFit(
                W[i], len(history[i]), history[i][-1], history[i], bool(cond[t]))
    return out


def _ips(A, index: GraphIndex, tol, max_iter: int = 10_000, start=None):
    """Clique sweeps (see :func:`constrain_scatter`) on an (R, p, p) stack
    until each slice's residual is within its ``tol`` (a scalar or one per
    slice); a slice stops sweeping once it is.  ``start`` is a pair of
    stacks, concentrations with exact zeros on the absent edges and their
    inverses, by default the diagonal of A.

    Returns the stacks K and W = K^{-1}, one residual history per slice,
    and {slice: ConvergenceError} for the slices that ran out of sweeps,
    whose K and W are the last sweep's.  A lost definiteness raises.
    """
    if max_iter < 1:
        raise PreconditionError(f"completion needs a budget of at least one sweep, got {max_iter}")
    R, p = len(A), index.p
    tols = np.broadcast_to(np.asarray(tol, dtype=float), (R,))
    if start is None:
        d, diag = np.diagonal(A, axis1=1, axis2=2), np.arange(p)
        start = np.zeros_like(A), np.zeros_like(A)
        start[0][:, diag, diag] = 1.0 / d
        start[1][:, diag, diag] = d
    K, W = start[0].copy(), start[1]
    # the clique marginals of A stay fixed, so each is inverted once
    A_inv = [spd_inverse(A[:, C[:, None], C]) for C in index.cliques]
    K_out, W_out = np.empty_like(A), np.empty_like(A)
    history, live, tol = [[] for _ in range(R)], np.arange(R), tols
    for _ in range(max_iter):
        if not live.size:
            break
        for C, Ainv in zip(index.cliques, A_inv):
            Wcc = W[:, C[:, None], C]
            delta = Ainv - spd_inverse(Wcc)
            K[:, C[:, None], C] += delta
            # Woodbury update of W = K^{-1}; the (I + delta Wcc) form
            # avoids inverting a possibly tiny delta.
            WU = W[:, :, C]
            M = np.linalg.solve(np.eye(len(C)) + delta @ Wcc, delta)
            W = W - WU @ M @ WU.mT
        # refresh the inverse once per sweep to stop Woodbury drift
        W = spd_inverse(K)
        res = _residual(W, K, A, index)
        for r, x in zip(live, res):
            history[r].append(float(x))
        done = res <= tol
        if done.any():
            K_out[live[done]], W_out[live[done]] = K[done], W[done]
            live, A, tol, K, W = live[~done], A[~done], tol[~done], K[~done], W[~done]
            A_inv = [x[~done] for x in A_inv]
    K_out[live], W_out[live] = K, W
    errors = {r: ConvergenceError(
        f"constrained completion did not reach tol={float(tols[r])} in {max_iter} "
        f"sweeps (last residual {history[r][-1]:.3e})", residual=history[r][-1]) for r in live}
    return K_out, W_out, history, errors


def _pair(T, rows, cols) -> np.ndarray:
    """Entries 1/2 (T_ik T_jl + T_il T_jk) for index-array pairs rows = (i, j)
    and cols = (k, l): the (rows, cols) block of M_p (T x T), any square T."""
    (i, j), (k, l) = rows, cols
    out = T[np.ix_(i, k)] * T[np.ix_(j, l)]
    out += T[np.ix_(i, l)] * T[np.ix_(j, k)]
    out *= 0.5
    return out


def _rc(v, p: int):
    """0-based (row, col) index arrays of the vec positions v of a p x p matrix."""
    return v % p, v // p


def _derivative_block(U, index: GraphIndex):
    """Vec positions kv of the edge and diagonal entries, dv of the absent
    edges (both triangles), and L = J[dv, kv] for the completion derivative
    J at the point whose inverse is U.  J[kv] is M_p[kv] and J[:, dv] = 0.
    L = -1/2 B^-1 _pair(U, D, kv) on rows (i, j) and (j, i) for (i, j) in
    D = index.D, with the q x q constraint system B = _pair(U, D, D); warns
    when B is ill-conditioned.
    """
    p = index.p
    on_k = index.k_mask.ravel(order="F")
    kv, dv = np.flatnonzero(on_k), np.flatnonzero(~on_k)
    if index.q == 0:
        return kv, dv, np.zeros((0, kv.size))
    i, j = D = _rc(index.D, p)
    B = _pair(U, D, D)
    eigs = np.linalg.eigvalsh(B)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > COND_WARN:
        warnings.warn("constraint system is ill-conditioned", RuntimeWarning)
    X = cho_solve(cho_factor(B), _pair(U, D, _rc(kv, p)))
    slot = np.empty((p, p), dtype=int)
    slot[i, j] = slot[j, i] = np.arange(len(i))
    return kv, dv, -0.5 * X[slot[_rc(dv, p)]]


def constrain_jacobian(A, index: GraphIndex, tol: float = 1e-12) -> np.ndarray:
    """Derivative of the constrained-completion map at A, as p^2 x p^2.

    With U the inverse of the completed matrix, the derivative equals

        M_p - M_p Q_D^T {Q_D M_p (U x U) Q_D^T}^{-1} Q_D (U x U) M_p,

    and reduces to M_p when the graph is complete.  The inner q x q
    system is solved by a symmetric (Cholesky) factorization; a warning
    is raised when it is ill-conditioned.
    """
    p = index.p
    # a complete graph needs no completion: the derivative is M_p
    U = spd_inverse(constrain_scatter(A, index, tol=tol).matrix) if index.q else None
    kv, dv, L = _derivative_block(U, index)
    J = np.zeros((p * p, p * p))
    J[np.ix_(kv, kv)] = _pair(np.eye(p), _rc(kv, p), _rc(kv, p))
    J[np.ix_(dv, kv)] = L
    return J


def scatter_acov(V, scalars: AsymptoticScalars) -> np.ndarray:
    """Asymptotic covariance 2*s1*M_p(V x V) + s2*vec(V)vec(V)^T."""
    V = check_spd(V)
    p = V.shape[0]
    scalars.check_bounds(p)
    every, vV = _rc(np.arange(p * p), p), vec(V)
    return 2.0 * scalars.sigma1 * _pair(V, every, every) + scalars.sigma2 * np.outer(vV, vV)


def pattern_violation(V, index: GraphIndex) -> float:
    """Max-abs entry of V^{-1} on absent-edge positions."""
    V = np.asarray(V, dtype=float)
    if V.shape != (index.p, index.p):
        raise DimensionError(f"graph has p={index.p} but V is {'x'.join(map(str, V.shape))}")
    U = spd_inverse(V)
    return float(np.max(np.abs(U[index.d_mask]))) if index.d_mask.any() else 0.0


def constrained_scatter_acov(V, index: GraphIndex, scalars: AsymptoticScalars,
                             form: str = "auto") -> np.ndarray:
    """Asymptotic covariance of the graph-constrained scatter estimate.

    The result is 2 s1 J (V x V) J^T + s2 vec(V_G) vec(V_G)^T with J the
    completion derivative at V_G.  ``form`` selects V_G: "general" takes
    the completion of V; "reduced" takes V itself, valid when the inverse
    of V already has the graph's zero pattern; "auto" picks "reduced"
    exactly in that case.  With M = M_p(V x V) on the edge and diagonal
    entries and L from ``_derivative_block``, J (V x V) J^T has the blocks
    M, M L^T, L M and L M L^T, so every column stays tangent to the graph.
    """
    V = check_spd(V)
    p = index.p
    scalars.check_bounds(p)
    if form not in ("auto", "general", "reduced"):
        raise PreconditionError(f"unknown form {form!r}")
    pattern_ok = pattern_violation(V, index) <= 1e-10 * max(1.0, float(np.max(np.abs(V))))
    if form == "reduced" and not pattern_ok:
        raise PreconditionError("reduced form requires the inverse zero pattern to hold")
    if form == "auto":
        form = "reduced" if pattern_ok else "general"

    VG = constrain_scatter(V, index, tol=1e-12).matrix if form == "general" else V
    kv, dv, L = _derivative_block(spd_inverse(VG), index)
    M = _pair(V, _rc(kv, p), _rc(kv, p))
    LM = L @ M
    W = np.zeros((p * p, p * p))
    W[np.ix_(kv, kv)] = M
    W[np.ix_(dv, kv)] = LM
    W[np.ix_(kv, dv)] = LM.T
    W[np.ix_(dv, dv)] = LM @ L.T
    vG = vec(VG)
    W = 2.0 * scalars.sigma1 * W + scalars.sigma2 * np.outer(vG, vG)
    return 0.5 * (W + W.T)


def edge_basis_gram(V, index: GraphIndex) -> np.ndarray:
    """Gram matrix Gamma^T (V x V) Gamma of the symmetric edge basis.

    Gamma maps the m-q free concentration entries to vec form; its
    columns are vec(E_ij + E_ji) for sub-diagonal edges and vec(E_ii)
    for the diagonal.  Entries are assembled from p x p products only.
    """
    K = _rc(index.K, index.p)
    w = np.where(K[0] == K[1], 1.0, 2.0)
    G = w[:, None] * _pair(V, K, K) * w[None, :]
    return 0.5 * (G + G.T)


def concentration_acov(V, index: GraphIndex, scalars: AsymptoticScalars,
                       pattern_tol: float = 1e-8) -> np.ndarray:
    """Asymptotic covariance of the free concentration entries.

    Valid when the inverse of V carries the graph's zero pattern; raises
    otherwise.  Equals 2*s1*{Gamma^T (V x V) Gamma}^{-1} + s2*u u^T with
    u the free entries of the inverse, and has full rank.
    """
    V = check_spd(V)
    scalars.check_bounds(index.p)
    if pattern_violation(V, index) > pattern_tol:
        raise PreconditionError(
            "inverse of V violates the graph zero pattern beyond "
            f"{pattern_tol:g}"
        )
    U = spd_inverse(V)
    G = edge_basis_gram(V, index)
    u = vec(U)[index.K]
    W = 2.0 * scalars.sigma1 * spd_inverse(G) + scalars.sigma2 * np.outer(u, u)
    return 0.5 * (W + W.T)
