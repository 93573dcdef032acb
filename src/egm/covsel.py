"""Graph-constrained scatter completion and its asymptotic covariances.

Given an SPD matrix A and a graph G, :func:`constrain_scatter` computes
the unique SPD matrix that agrees with A on edges and the diagonal while
its inverse vanishes on the absent edges.  The solver is clique-wise
iterative proportional scaling on the concentration matrix, which
converges for arbitrary (also non-decomposable) graphs.

The analytic derivative of that map and the asymptotic covariances built
from it are dense p^2 x p^2 (resp. (m-q) x (m-q)) matrices, assembled from
p x p pieces by :func:`_pair` without any Kronecker or selection matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConvergenceError, DefinitenessError, PreconditionError
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


def _residual(Sigma, Kmat, A, index: GraphIndex) -> float:
    """Max-abs violation of the two defining conditions."""
    res_match = np.max(np.abs((Sigma - A)[index.k_mask])) if index.k_mask.any() else 0.0
    res_zero = np.max(np.abs(Kmat[index.d_mask])) if index.d_mask.any() else 0.0
    return float(max(res_match, res_zero))


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
    A = check_spd(A)
    p = index.p
    if A.shape != (p, p):
        raise PreconditionError(f"matrix is {A.shape} but the graph has p={p}")
    cond_flag = bool(np.linalg.cond(A) > COND_WARN)
    if cond_flag:
        warnings.warn("input matrix has condition number above 1e12", RuntimeWarning)

    if index.q == 0:
        return ConstrainedFit(A.copy(), 0, 0.0, [0.0], cond_flag)

    # a compliant input is its own completion; return it unchanged
    res0 = _residual(A, spd_inverse(A), A, index)
    if res0 <= tol:
        return ConstrainedFit(A.copy(), 0, res0, [res0], cond_flag)

    _, W, history = _ips(A, index, tol, max_iter)
    return ConstrainedFit(W, len(history), history[-1], history, cond_flag)


def _ips(A, index: GraphIndex, tol: float, max_iter: int = 10_000, start=None):
    """Clique sweeps (see :func:`constrain_scatter`) until the residual is
    within ``tol``; returns (K, W = K^{-1}, residual history).  ``start`` is
    a concentration with exact zeros on the absent edges and its inverse,
    by default the diagonal of A; its K is updated in place."""
    K, W = start if start is not None else (np.diag(1.0 / np.diag(A)), np.diag(np.diag(A)))
    cliques = [np.array(c, dtype=int) - 1 for c in index.cliques]
    history = []
    for _ in range(max_iter):
        for C in cliques:
            Acc_inv = spd_inverse(A[np.ix_(C, C)])
            Wcc = W[np.ix_(C, C)]
            delta = Acc_inv - spd_inverse(Wcc)
            K[np.ix_(C, C)] += delta
            # Woodbury update of W = K^{-1}; the (I + delta Wcc) form
            # avoids inverting a possibly tiny delta.
            WU = W[:, C]
            M = np.linalg.solve(np.eye(len(C)) + delta @ Wcc, delta)
            W = W - WU @ M @ WU.T
        # refresh the inverse once per sweep to stop Woodbury drift
        W = spd_inverse(K)
        history.append(_residual(W, K, A, index))
        if history[-1] <= tol:
            return K, W, history
    raise ConvergenceError(
        f"constrained completion did not reach tol={tol} in {max_iter} sweeps "
        f"(last residual {history[-1]:.3e})",
        residual=history[-1],
    )


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
    L = -1/2 B^-1 _pair(U, D, kv) on rows (i, j) and (j, i), with the q x q
    constraint system B = _pair(U, D, D); warns when B is ill-conditioned.
    """
    p = index.p
    on_k = index.k_mask.ravel(order="F")
    kv, dv = np.flatnonzero(on_k), np.flatnonzero(~on_k)
    if index.q == 0:
        return kv, dv, np.zeros((0, kv.size))
    i, j = D = _rc(dv[dv % p > dv // p], p)  # the absent edges below the diagonal
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
    # the edge and diagonal entries on and below the diagonal, in the order of index.K
    K = _rc(np.flatnonzero(np.tril(index.k_mask).ravel(order="F")), index.p)
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
    u = vec(U)[index.K.vec_indices()]
    W = 2.0 * scalars.sigma1 * spd_inverse(G) + scalars.sigma2 * np.outer(u, u)
    return 0.5 * (W + W.T)
