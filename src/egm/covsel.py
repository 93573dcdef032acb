"""Graph-constrained scatter completion and its asymptotic covariances.

Given an SPD matrix A and a graph G, :func:`constrain_scatter` computes
the unique SPD matrix that agrees with A on edges and the diagonal while
its inverse vanishes on the absent edges.  The solver takes damped Newton
steps, on whichever side of the max-determinant problem has fewer free
entries, for arbitrary (also non-decomposable) graphs, and reads only the
graph's edge-and-diagonal mask.  A Newton system with more than 64 free
entries is solved by conjugate gradients, in O(p^2) memory per matrix.
It runs on (R, p, p) stacks, with one graph for the stack or one per
slice, so M-estimation, the search, the deviance and the studies
complete many matrices per LAPACK call; each slice stops when it would
stop alone, and a single completion is a stack of one.  A slice that
runs out of steps or loses definiteness on the way gets its own
ConvergenceError, the one it raises alone, while the others go on; only a
non-SPD input (DefinitenessError) raises for the whole stack.

The analytic derivative of that map and the asymptotic covariances built
from it are dense p^2 x p^2 (resp. (m-q) x (m-q)) matrices, assembled from
p x p pieces by :func:`_pair` without any Kronecker or selection matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DefinitenessError, DimensionError, PreconditionError, _results
from .graphs import GraphIndex
from .linops import _cholesky_logdet, _per_slice, check_spd, spd_inverse, vec

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
#: default budget of Newton steps: 3x the most that any input tried took (65)
_MAX_STEPS = 200
#: free entries up to which a Newton step solves its f x f Hessian densely;
#: beyond, conjugate gradients were faster (crossover 45-150) in O(p^2) memory
_DENSE_MAX = 64


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

    ``residual`` is the max-abs violation, at unit diagonal (W and A over
    d d^T, d = sqrt(diag A)), of the condition that the steps do not hold
    exactly: (W^-1)_D = 0 on the absent edges D on the dual side, where
    W = A on the edges and the diagonal; W = A there on the primal side,
    where W = K^-1 with K_D = 0.  ``residual_history`` holds the start's
    value, then each Newton step's.
    """

    matrix: np.ndarray
    iterations: int
    residual: float
    residual_history: list = field(default_factory=list)
    condition_warning: bool = False


def _check_budget(tol, max_iter: int, unit: str) -> None:
    """PreconditionError unless every tol is finite and > 0 and max_iter >= 1."""
    if not np.all((np.asarray(tol) > 0) & np.isfinite(tol)):
        raise PreconditionError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise PreconditionError(f"a budget of at least one {unit} is needed, got {max_iter}")


def constrain_scatter(A, index: GraphIndex, tol: float = 1e-10,
                      max_iter: int = _MAX_STEPS) -> ConstrainedFit:
    """Complete A to the graph-constrained scatter matrix.

    Parameters
    ----------
    A : (p, p) array_like
        Symmetric positive definite input.
    index : GraphIndex
        Graph machinery from :func:`egm.graphs.build_index`.
    tol : float
        Bound on the residual (see :class:`ConstrainedFit`) and on the
        max-abs change of the last Newton step, both at unit diagonal.
    max_iter : int
        Maximum number of Newton steps.

    Returns
    -------
    ConstrainedFit
        The completed matrix plus convergence diagnostics.

    Raises
    ------
    DefinitenessError
        If A is not SPD.
    ConvergenceError
        If the step budget is exhausted, carrying the last residual, or
        if the steps lose positive definiteness, chained to that error.

    Notes
    -----
    W maximizes log det W over the absent-edge entries, with W = A on
    the edges and the diagonal (Dempster 1972), for any graph, also
    non-decomposable (Speed & Kiiveri 1986); K = W^-1 maximizes the dual
    log det K - tr(AK) over K with K = 0 on the absent edges.  Both are
    self-concordant, so damped Newton steps stay positive definite and
    converge quadratically without tuning (Boyd & Vandenberghe 2004,
    9.5-9.6), on whichever side has fewer free entries.  A step with more
    than 64 free entries solves its Newton system by conjugate gradients
    on Hessian-vector products (Dahl, Vandenberghe & Roychowdhury 2008),
    so its memory stays O(p^2) per matrix.
    """
    fit, = _results(_complete(check_spd(A)[None], index.k_mask, tol, max_iter))
    return fit


def _complete(A, k_mask, tol: float, max_iter: int = _MAX_STEPS, start=None) -> list:
    """:func:`constrain_scatter` on each slice of an (R, p, p) stack, with its
    checks, warning and early exits, under ``k_mask``: one (p, p) graph or
    one per slice, and from a ``start`` stack (see :func:`_newton`).  One
    ConstrainedFit, or the ConvergenceError of a slice that runs out of steps
    or loses definiteness, per slice; one kernel call serves the stack."""
    _check_budget(tol, max_iter, "step")
    if A.shape[1:] != k_mask.shape[-2:]:
        raise PreconditionError(f"matrix is {A.shape[1:]} but the graph has p={k_mask.shape[-1]}")
    A = np.asarray(A, dtype=float)
    # a broadcast stack repeats one matrix: check, test and invert it once
    one = check_spd(A[:1] if len(A) > 1 and A.strides[0] == 0 else A)
    A, k_mask = np.broadcast_to(one, A.shape), np.broadcast_to(k_mask, A.shape)
    eig = np.linalg.eigvalsh(one)  # SPD: the 2-norm condition number is a ratio of these
    cond = np.broadcast_to(eig[:, -1] > COND_WARN * eig[:, 0], len(A))
    for _ in range(np.count_nonzero(cond)):
        warnings.warn("input matrix has condition number above 1e12", RuntimeWarning)
    # a complete graph, or a compliant input, is its own completion
    res0 = _off_pattern(spd_inverse(one), one, ~k_mask)
    done = res0 <= tol
    out = [ConstrainedFit(A[i].copy(), 0, float(res0[i]), [float(res0[i])], bool(cond[i]))
           if done[i] else None for i in range(len(A))]
    todo = np.flatnonzero(~done)
    W, history, errors = _newton(A[todo], k_mask[todo], tol, max_iter,
                                 None if start is None else start[todo])
    for i, t in enumerate(todo):
        exc = errors.get(i)
        if isinstance(exc, (DefinitenessError, np.linalg.LinAlgError)):  # the steps failed
            exc = ConvergenceError(f"constrained completion lost positive definiteness: {exc}")
            exc.__cause__ = errors[i]
        out[t] = exc or ConstrainedFit(
            W[i], len(history[i]) - 1, history[i][-1], history[i], bool(cond[t]))
    return out


def _newton(A, k_mask, tol, max_iter: int = _MAX_STEPS, start=None):
    """Damped Newton steps (see :func:`constrain_scatter`) on an (R, p, p)
    stack under ``k_mask``, one (p, p) graph or one per slice, with one
    ``tol`` or one per slice, on A / (d d^T), d = sqrt(diag A).  Slices with the
    same side and number of free entries F step as one stack, each on its own
    F; the primal side needs tol >= 1e-13 max(A^-1), as K^-1 rounds at eps cond A.
    M = W (dual) or K (primal) steps by M_F += t w H^-1 g: g = (M^-1 - T)_F,
    T = 0 or A, H = _pair(M^-1, F, F), w = 1/2 off the diagonal and 1 on
    it, and t = 1 where lambda^2 = g H^-1 g <= 1/16 or the full step keeps
    a factor and does not lower log det M - tr(TM), else 1/(1 + lambda).
    M starts at A or diag(A)^-1, or at ``start`` or its inverse (I without
    one) on F where that has a factor and a higher objective.  A slice stops
    once its residual and last step (at first, the proposed one) are within
    tol, or its residual is and rounding stops lambda.  Returns W, the
    residual histories (the start's, then one per step) and {slice: error}: a
    ConvergenceError out of steps, a DefinitenessError for an M without a
    factor or a stalled step, or the LinAlgError of a singular H."""
    _check_budget(tol, max_iter, "step")
    R, p = A.shape[:2]
    tols = np.broadcast_to(np.asarray(tol, dtype=float), (R,))
    d = np.sqrt(np.diagonal(A, axis1=1, axis2=2))
    dd = d[:, :, None] * d[:, None, :]
    A, start = A / dd, None if start is None else start / dd
    iu = np.triu_indices(p)
    on = np.broadcast_to(k_mask, A.shape)[:, iu[0], iu[1]]
    primal = on.sum(axis=1) < (~on).sum(axis=1)
    inv = _per_slice(np.linalg.inv, A[primal])[0]
    primal[primal] = tols[primal] >= 1e-13 * inv.max(axis=(1, 2))
    free = np.where(primal[:, None], on, ~on)
    W, history, errors = np.empty_like(A), [[] for _ in range(R)], {}

    def at_F(M):
        return M[np.arange(len(M))[:, None], F[0], F[1]]

    def on_F(M, x):
        at = np.arange(len(M))[:, None]
        M[at, F[0], F[1]] = M[at, F[1], F[0]] = x
        return M

    def direction(Minv, g, eta):
        # H^-1 g, beyond _DENSE_MAX free entries by conjugate gradients, to a relative
        # residual eta, preconditioned by diag(H), on H v = (M^-1 V M^-1)_F, V = on_F(w v)
        if f <= _DENSE_MAX:  # in blocks of slices with up to 2^18 Hessian entries
            n, d = max(1, 2 ** 18 // max(f, 1) ** 2), []
            for c in range(0, len(g), n):
                Fc = [x[c:c + n] for x in F]
                sol, singular = _per_slice(np.linalg.solve, _pair(Minv[c:c + n], Fc, Fc),
                                           g[c:c + n, :, None])
                d.append(sol[..., 0])
                if singular:
                    bad.update((c + i, exc) for i, exc in singular.items())
            return np.concatenate(d)
        u = np.diagonal(Minv, axis1=1, axis2=2)[..., None]
        pre = 2.0 / at_F(u * u.transpose(0, 2, 1) + Minv ** 2)
        d, r, s = np.zeros_like(g), g, pre * g
        rz = (r * s).sum(axis=1)
        for _ in range(f):
            live = np.linalg.norm(r, axis=1) > eta * np.linalg.norm(g, axis=1)
            if not live.any():
                return d
            Hs = at_F(Minv @ on_F(np.zeros_like(Minv), w * s) @ Minv)
            a = np.divide(rz, (s * Hs).sum(axis=1), out=np.zeros_like(rz), where=live)[:, None]
            d, r, old = d + a * s, r - a * Hs, rz
            rz = (r * pre * r).sum(axis=1)
            s = pre * r + np.divide(rz, old, out=np.zeros_like(rz), where=live)[:, None] * s
        return d

    for side, f in sorted(set(zip(primal.tolist(), free.sum(axis=1).tolist()))):
        live = np.flatnonzero((primal == side) & (free.sum(axis=1) == f))
        F = tuple(x[np.nonzero(free[live])[1]].reshape(len(live), f) for x in iu)
        a, tol, prev = A[live], tols[live], np.full(len(live), np.inf)
        T, w = at_F(a) if side else np.zeros(F[0].shape), np.where(F[0] == F[1], 1.0, 0.5)
        M = np.eye(p) / np.diagonal(a, axis1=1, axis2=2)[:, None, :] if side else a.copy()
        if start is not None:
            K = _per_slice(spd_inverse, start[live])[0] if side else start[live]
            warm = on_F(M.copy(), at_F(K))
            ok = (_cholesky_logdet(warm) - _cholesky_logdet(M)
                  - (T * (at_F(warm) - at_F(M)) / w).sum(axis=1) >= 0.0)
            M[ok] = warm[ok]
        stalled = np.zeros(len(live), dtype=bool)  # the last step left M as it was
        for step in range(max_iter + 1):
            Minv, bad = _per_slice(spd_inverse, M)
            g = at_F(Minv) - T
            d = direction(Minv, g, np.minimum(0.1, prev))
            lam = np.sqrt(np.maximum((g * d).sum(axis=1), 0.0))
            dM = on_F(np.zeros_like(M), w * d)
            last = last if step else dM
            Wk, res = Minv if side else M, np.abs(g).max(axis=1, initial=0.0)
            change = np.abs(Wk @ last @ Wk if side else last).max(axis=(1, 2))
            # the last step bounds the distance that a small residual does not, until
            # rounding stops convergence, when a full step fails to halve lambda
            conv = (res <= tol) & ((change <= tol) | ((prev <= 0.25) & (lam > prev / 2)))
            for r, x in zip(live, res):
                history[r].append(float(x))
            for r in live[~conv] if step == max_iter else ():
                errors[r] = ConvergenceError(
                    f"constrained completion did not reach tol={float(tols[r])} in {max_iter} "
                    f"steps (last residual {history[r][-1]:.3e})", residual=history[r][-1])
            done = conv | stalled | (step == max_iter)
            for i, exc in bad.items():  # M without a factor, or a singular Newton system
                errors[live[i]] = exc
                done[i] = True
            if done.any():
                for r in live[stalled]:
                    errors[r] = DefinitenessError(
                        "a Newton step stalled at the edge of definiteness")
                W[live[done]] = Wk[done]
                live, tol, res, lam, M, T, w, d, dM, *F = (
                    x[~done] for x in (live, tol, res, lam, M, T, w, d, dM, *F))
            if not live.size:
                break
            prev, t, b = lam, np.ones_like(lam), np.flatnonzero(lam > 0.25)
            if b.size:
                gain = (_cholesky_logdet(M[b] + dM[b]) - _cholesky_logdet(M[b])
                        - (T[b] * d[b]).sum(axis=1))
                t[b] = np.where(gain >= 0.0, 1.0, 1.0 / (1.0 + lam[b]))
            trial = M + t[:, None, None] * dM
            last = trial - M
            stalled = (res > tol) & ~last.any(axis=(1, 2))
            M = trial
    return W * dd, history, errors


def _pair(T, rows, cols) -> np.ndarray:
    """Entries 1/2 (T_ik T_jl + T_il T_jk) for index-array pairs rows = (i, j)
    and cols = (k, l): the (rows, cols) block of M_p (T x T), any square T.
    On an (R, p, p) stack, with (R, n) index arrays, one block per slice."""
    p, flat = T.shape[-1], T.reshape(-1)
    at = np.arange(0, T.size, p * p).reshape(-1, 1, 1) if T.ndim == 3 else 0
    i, j = (np.asarray(x)[..., :, None] * p + at for x in rows)
    k, l = (np.asarray(x)[..., None, :] for x in cols)
    return 0.5 * (flat.take(i + k) * flat.take(j + l) + flat.take(i + l) * flat.take(j + k))


def _rc(v, p: int):
    """0-based (row, col) index arrays of the vec positions v of a p x p matrix."""
    return v % p, v // p


def _derivative_block(U, index: GraphIndex):
    """Vec positions kv of the edges and diagonal, the slot r of each vec
    position's representative in [index.K, index.D], and L = J[D, kv], one row
    per absent edge, for the completion derivative J at the point whose
    inverse is U: J = J[r][:, r] on the representatives, J[kv] = M_p[kv], and
    J is 0 on the other columns.  L = -1/2 B^-1 _pair(U, D, kv) by one
    Cholesky factor C of B = _pair(U, D, D), else a DefinitenessError; warns
    if cond(B) > COND_WARN, by bounds from C^-1 unless they straddle it."""
    p = index.p
    kv = np.flatnonzero(index.k_mask.ravel(order="F"))
    rep, r = np.concatenate([index.K, index.D]), np.empty(p * p, dtype=np.intp)
    r[rep] = r[rep % p * p + rep // p] = np.arange(rep.size)  # (i, j) and (j, i)
    if index.q == 0:
        return kv, r, np.zeros((0, kv.size))
    D = _rc(index.D, p)
    B = _pair(U, D, D)
    C, bad = _per_slice(np.linalg.cholesky, B[None])
    if bad or not np.isfinite(C).all():
        raise DefinitenessError("constraint system is not positive definite")
    Ci = _tril_inverse(C[0])
    # lambda_max is in [max B_ii, |B|_1] and 1/lambda_min in [max (B^-1)_ii, tr B^-1], with
    # B^-1 = C^-T C^-1; where these straddle COND_WARN (a margin of 2 for rounding), eigvalsh
    inv = np.einsum("ij,ij->j", Ci, Ci)
    lo, hi = B.diagonal().max() * inv.max(), np.abs(B).sum(axis=0).max() * inv.sum()
    if lo <= 2.0 * COND_WARN and hi > 0.5 * COND_WARN:
        eigs = np.linalg.eigvalsh(B)
        lo = 4.0 * COND_WARN if eigs[-1] > COND_WARN * eigs[0] else 0.0
    if lo > 2.0 * COND_WARN:
        warnings.warn("constraint system is ill-conditioned", RuntimeWarning)
    return kv, r, -0.5 * (Ci.T @ (Ci @ _pair(U, D, _rc(kv, p))))


def _tril_inverse(C) -> np.ndarray:
    """Lower-triangular C^-1 as [[A, 0], [E, F]]^-1 = [[A^-1, 0], [-F^-1 E A^-1, F^-1]]."""
    if len(C) <= 64:
        return np.linalg.inv(C)
    h, out = len(C) // 2, np.zeros_like(C)
    out[:h, :h], out[h:, h:] = _tril_inverse(C[:h, :h]), _tril_inverse(C[h:, h:])
    out[h:, :h] = -out[h:, h:] @ C[h:, :h] @ out[:h, :h]
    return out


def constrain_jacobian(A, index: GraphIndex, tol: float = 1e-12) -> np.ndarray:
    """Derivative of the constrained-completion map at A, as p^2 x p^2.

    With U the inverse of the completed matrix, the derivative equals

        M_p - M_p Q_D^T {Q_D M_p (U x U) Q_D^T}^{-1} Q_D (U x U) M_p,

    and reduces to M_p when the graph is complete.  The inner q x q system
    is factored once; a DefinitenessError unless it is positive definite, a
    warning when it is ill-conditioned.
    """
    p = index.p
    # a complete graph needs no completion: the derivative is M_p
    U = spd_inverse(constrain_scatter(A, index, tol=tol).matrix) if index.q else None
    kv, r, L = _derivative_block(U, index)
    K = _rc(index.K, p)
    JK = np.vstack([_pair(np.eye(p), K, K), L[:, np.searchsorted(kv, index.K)]])
    return np.hstack([JK, np.zeros((len(JK), index.q))]).take(r, axis=0).take(r, axis=1)


def scatter_acov(V, scalars: AsymptoticScalars) -> np.ndarray:
    """Asymptotic covariance 2*s1*M_p(V x V) + s2*vec(V)vec(V)^T."""
    V = check_spd(V)
    p = V.shape[0]
    scalars.check_bounds(p)
    every, vV = _rc(np.arange(p * p), p), vec(V)
    return 2.0 * scalars.sigma1 * _pair(V, every, every) + scalars.sigma2 * np.outer(vV, vV)


def _off_pattern(U, V, d_mask) -> np.ndarray:
    """The zero-pattern test, per slice: max |U_ij| sqrt(V_ii V_jj) over ``d_mask``, U = V^-1."""
    d = np.sqrt(np.diagonal(V, axis1=-2, axis2=-1))
    return np.where(d_mask, np.abs(U) * d[..., :, None] * d[..., None, :], 0.0).max(axis=(-2, -1))


def pattern_violation(V, index: GraphIndex) -> float:
    """Max of |(V^-1)_ij| sqrt(V_ii V_jj) over the absent edges: scale-free."""
    V = np.asarray(V, dtype=float)
    if V.shape != (index.p, index.p):
        raise DimensionError(f"graph has p={index.p} but V is {'x'.join(map(str, V.shape))}")
    return float(_off_pattern(spd_inverse(V), V, index.d_mask))


def constrained_scatter_acov(V, index: GraphIndex, scalars: AsymptoticScalars,
                             form: str = "auto") -> np.ndarray:
    """Asymptotic covariance of the graph-constrained scatter estimate.

    The result is 2 s1 J (V x V) J^T + s2 vec(V_G) vec(V_G)^T with J the
    completion derivative at V_G.  ``form`` selects V_G: "general" takes
    the completion of V; "reduced" takes V itself, valid when the inverse
    of V has the graph's zero pattern (:func:`pattern_violation` within
    1e-10); "auto" picks "reduced" exactly then.  With M = M_p(V x V)
    on the edges and diagonal and L from ``_derivative_block``, J (V x V) J^T
    has the blocks M, M L^T, L M and L M L^T, each formed once per unordered
    pair and gathered, so every column stays tangent to the graph.
    """
    V = check_spd(V)
    p = index.p
    scalars.check_bounds(p)
    if form not in ("auto", "general", "reduced"):
        raise PreconditionError(f"unknown form {form!r}")
    pattern_ok = pattern_violation(V, index) <= 1e-10
    if form == "reduced" and not pattern_ok:
        raise PreconditionError("reduced form requires the inverse zero pattern to hold")
    general = form == "general" or form == "auto" and not pattern_ok
    VG = constrain_scatter(V, index, tol=1e-12).matrix if general else V
    kv, r, L = _derivative_block(spd_inverse(VG), index)
    k, M = np.searchsorted(kv, index.K), _pair(V, _rc(kv, p), _rc(kv, p))
    LM = L @ M
    v = vec(VG)[np.concatenate([index.K, index.D])]
    C = 2.0 * scalars.sigma1 * np.block([[M[np.ix_(k, k)], LM[:, k].T], [LM[:, k], LM @ L.T]])
    C += np.outer(scalars.sigma2 * v, v)
    C = 0.5 * (C + C.T)
    return C.take(r, axis=0).take(r, axis=1)


def edge_basis_gram(V, index: GraphIndex) -> np.ndarray:
    """Gram matrix Gamma^T (V x V) Gamma of the symmetric edge basis.

    Gamma maps the m-q free concentration entries to vec form; its
    columns are vec(E_ij + E_ji) for sub-diagonal edges and vec(E_ii)
    for the diagonal.  Entries are assembled from p x p products only.
    """
    K = _rc(index.K, index.p)
    w = np.where(K[0] == K[1], 1.0, 2.0)
    G = w[:, None] * _pair(V, K, K) * w[None, :]
    return 0.5 * (G + G.mT)


def concentration_acov(V, index: GraphIndex, scalars: AsymptoticScalars) -> np.ndarray:
    """Asymptotic covariance of the free concentration entries.

    Valid when :func:`pattern_violation` is within 1e-8; raises otherwise.
    Equals 2*s1*{Gamma^T (V x V) Gamma}^{-1} + s2*u u^T with u the free
    entries of the inverse, and has full rank.
    """
    V = check_spd(V)
    scalars.check_bounds(index.p)
    if pattern_violation(V, index) > 1e-8:
        raise PreconditionError("inverse of V violates the graph zero pattern beyond 1e-08")
    U = spd_inverse(V)
    G = edge_basis_gram(V, index)
    u = vec(U)[index.K]
    W = 2.0 * scalars.sigma1 * spd_inverse(G) + scalars.sigma2 * np.outer(u, u)
    return 0.5 * (W + W.T)
