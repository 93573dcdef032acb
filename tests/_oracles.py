"""Independent oracles shared by the test modules.

Everything here deliberately avoids the code paths under test: the
constrained completion is re-derived by generic numerical optimization,
derivatives by central differences, and distributional facts by Monte
Carlo or classical closed forms.
"""

import numpy as np
import scipy.optimize

from egm.graphs import Graph


def rand_spd(p, rng, spread=1.0):
    """Random well-conditioned SPD matrix."""
    A = spread * rng.standard_normal((p, p))
    return A @ A.T + p * np.eye(p)


def random_graph(p, rng, prob=0.5):
    edges = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)
             if rng.random() < prob]
    return Graph.from_edges(p, edges)


def hg_optimization_oracle(A, index):
    """Brute-force completion: maximize logdet(K) - trace(K A) over the
    free entries of K with the graph's zero pattern.  L-BFGS-B with the
    analytic gradient gets close; damped Newton steps with the analytic
    Hessian polish the optimum to machine precision.  Returns the
    completed scatter K*^{-1}.
    """
    p = index.p
    kpos = index.K.positions
    basis = []
    for (i, j) in kpos:
        E = np.zeros((p, p))
        E[i - 1, j - 1] = 1.0
        E[j - 1, i - 1] = 1.0
        basis.append(E)

    def unpack(k):
        K = np.zeros((p, p))
        for val, (i, j) in zip(k, kpos):
            K[i - 1, j - 1] = val
            K[j - 1, i - 1] = val
        return K

    def negloglik(k):
        K = unpack(k)
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            return 1e10
        return -(2.0 * np.sum(np.log(np.diag(L))) - np.sum(K * A))

    def grad(k):
        K = unpack(k)
        G = np.linalg.inv(K) - A
        return np.array([-(2.0 if i != j else 1.0) * G[i - 1, j - 1]
                         for (i, j) in kpos])

    k0 = np.array([1.0 / A[i - 1, i - 1] if i == j else 0.0 for (i, j) in kpos])
    res = scipy.optimize.minimize(
        negloglik, k0, jac=grad, method="L-BFGS-B",
        options={"maxiter": 10_000, "ftol": 1e-16, "gtol": 1e-12})

    # Newton refinement: grad_a = tr((A - K^{-1}) E_a),
    # hess_ab = tr(K^{-1} E_a K^{-1} E_b)
    k = res.x
    for _ in range(40):
        K = unpack(k)
        Kinv = np.linalg.inv(K)
        g = np.array([np.sum((A - Kinv) * E) for E in basis])
        if np.max(np.abs(g)) < 1e-13:
            break
        KE = [Kinv @ E for E in basis]
        H = np.array([[np.sum(KE[a].T * KE[b]) for b in range(len(basis))]
                      for a in range(len(basis))])
        step = np.linalg.solve(H, -g)
        t, f0 = 1.0, negloglik(k)
        while t > 1e-8 and negloglik(k + t * step) > f0:
            t *= 0.5
        k = k + t * step
    return np.linalg.inv(unpack(k))


def fd_directional(fn, A, E, h=1e-6):
    """Central finite difference of a matrix-valued map along direction E."""
    return (fn(A + h * E) - fn(A - h * E)) / (2.0 * h)


def random_symmetric_direction(p, rng):
    E = rng.standard_normal((p, p))
    E = 0.5 * (E + E.T)
    return E / np.linalg.norm(E, "fro")


def plain_fixed_point(X, spec, tol, max_iter, index=None):
    """The unaccelerated fixed-point iteration of the M-estimating equations
    on one (n, p) data set, written out one map evaluation at a time.

    Unlike the rest of this module it is built from the solver's own map,
    completion and residual primitives (``mest._reweight``, ``covsel._ips``
    with the previous completion as its start, ``mest._residual``), so that
    a solver whose every extrapolation is rejected must equal it bit for
    bit.  Stops at the first map output whose change and residual are both
    within ``tol``.  Returns (mu, S, map evaluations), or None when
    ``max_iter`` evaluations do not get there.
    """
    from egm.covsel import _complete, _ips
    from egm.mest import _residual, _reweight

    X = np.asarray(X, dtype=float)[None]
    mu = X.mean(axis=1)
    Xc = X - mu[:, None, :]
    S = Xc.mT @ Xc / X.shape[1]
    if index is not None:
        S = _complete(S, index, 1e-2 * tol)[0].matrix[None]
    start, change = None, np.inf
    for it in range(1, max_iter + 1):
        mu_new, S_new = _reweight(X, mu, S, spec)
        if index is not None:
            inner_tol = np.minimum(np.maximum(1e-2 * change, 1e-2 * tol), 1e-2)
            K, S_new, _, failed = _ips(S_new, index, inner_tol, start=start)
            assert not failed
            start = (K, S_new)
        scale = np.maximum(1.0, np.max(np.abs(S), axis=(1, 2)))
        change = np.maximum(np.max(np.abs(mu_new - mu), axis=1),
                            np.max(np.abs(S_new - S), axis=(1, 2)) / scale)
        mu, S = mu_new, S_new
        if change[0] <= tol and _residual(X, mu, S, spec, index)[0] <= tol:
            return mu[0], S[0], it
    return None
