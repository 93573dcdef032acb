"""Independent oracles shared by the test modules.

Everything here deliberately avoids the code paths under test: the
constrained completion is re-derived by generic numerical optimization,
derivatives by central differences, distributional facts by Monte
Carlo or classical closed forms, the fixed-point map in one pass over all
rows, data files by a ``csv.reader`` scan, the efficiency table one
cell at a time on 2-D arrays, and the completion derivative and its
covariance with every row and column filled from an LU solve.  The dense
selection operators live here too, as no solver reads them.
"""

import csv
import math

import numpy as np
import scipy.optimize

from egm.errors import DimensionError, _results
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
    G = index.graph
    kpos = [(i, j) for j in range(1, p + 1) for i in range(j, p + 1)
            if i == j or G.has_edge(i, j)]
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
    """The unrelaxed fixed-point iteration of the M-estimating equations
    on one (n, p) data set, written out one map evaluation at a time: each
    evaluation maps (mu, S) at its scale-corrected point (mu, S/s), for
    every weight but the constant Gaussian one, and takes that map output.

    Unlike the rest of this module it is built from the solver's own map,
    completion and metric primitives (``mest._reweight`` with its scale
    step, ``covsel._newton`` with the previous completion as its start,
    ``mest._distance`` for the change and ``mest._residual``), so that a
    solver whose every relaxation is rejected must equal it bit for bit.  A
    plain fit starts at the sample mean and covariance and stops at the
    first map output whose change and residual are both within ``tol``.
    Under a graph it starts at its own plain fit, the scatter completed to
    1e-10, and that completion starts the first inner completion; it stops
    once the change is within ``tol``/10 and the residual within ``tol``.
    Returns (mu, S, map evaluations), or None when ``max_iter`` evaluations
    do not get there.
    """
    from egm.covsel import _complete, _newton
    from egm.mest import _distance, _residual, _reweight

    X = np.asarray(X, dtype=float)[None]
    stop = tol
    if index is None:
        mu = X.mean(axis=1)
        Xc = X - mu[:, None, :]
        S = Xc.mT @ Xc / X.shape[1]
    else:
        mu, S, _ = plain_fixed_point(X[0], spec, tol, max_iter)
        mu, S, stop = mu[None], _complete(S[None], index.k_mask, 1e-10)[0].matrix[None], tol / 10
    start, change = S, np.inf
    for it in range(1, max_iter + 1):
        mu_new, S_new = _reweight(X, mu, S, spec, step=spec.name != "gaussian")[:2]
        if index is not None:
            inner_tol = np.minimum(np.maximum(1e-2 * change, 1e-2 * tol), 1e-2)
            S_new, _, failed = _newton(S_new, index.k_mask, inner_tol, start=start)
            assert not failed
            start = S_new
        change = _distance(mu, S, mu_new, S_new)
        mu, S = mu_new, S_new
        if change[0] <= stop and _residual(X, mu, S, spec, index)[0] <= tol:
            return mu[0], S[0], it
    return None


def reweight_oracle(X, mu, S, spec, center=None):
    """The fixed-point map of ``mest._reweight`` in one pass over all rows
    of the stacks X (R, n, p), mu (R, p) and S (R, p, p): the u1-weighted
    mean and the u2-weighted scatter about ``center``, by default that new
    mean.  Its temporaries grow with n."""
    Xc = X - mu[:, None, :]
    Y = np.linalg.inv(np.linalg.cholesky(0.5 * (S + S.mT))) @ Xc.mT
    radii = np.einsum("rij,rij->rj", Y, Y)
    w1, w2 = spec.u1(radii), spec.u2(radii)
    mu_new = (w1[..., None] * X).sum(axis=1) / w1.sum(axis=1)[:, None]
    Xc = X - (mu_new if center is None else center)[:, None, :]
    return mu_new, (w2[..., None] * Xc).mT @ Xc / X.shape[1]


def read_data_oracle(path, header=False):
    """``egm.cli.read_data`` as a ``csv.reader`` scan, one Python float()
    per cell: the rows it returns and the error texts it raises (the bad
    row, and column for a non-finite cell) define what a data file means.
    Blank and white-space-only records are skipped and ``#`` is data."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        width = None
        for lineno, row in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                values = [float(x) for x in row]
            except ValueError:
                raise ValueError(f"{path}: row {lineno}: could not parse {row!r} as numbers")
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ValueError(
                    f"{path}: row {lineno}: expected {width} columns, got {len(values)}")
            if not all(map(math.isfinite, values)):
                col = next(c for c, v in enumerate(values, 1) if not math.isfinite(v))
                raise ValueError(f"{path}: row {lineno}, column {col}: {row[col - 1]!r} is not finite")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def backward_elimination_oracle(X, spec, alpha, sigma1=None, family=None, tol=1e-9,
                                completion_tol=1e-10):
    """The backward search that scores every single-edge removal at every
    step: one stacked ``covsel._complete`` of the unconstrained M-estimate
    per step, each removal started at the current graph's completion, and
    the removal of least deviance taken unless significant at ``alpha``.
    It is built from the search's own completion and log det, so a search
    that leaves out only removals that cannot win must equal it bit for
    bit.  Returns the final graph and the audit trail."""
    from scipy.special import chdtrc

    from egm.covsel import _complete
    from egm.inference import resolve_sigma1
    from egm.linops import _cholesky_logdet
    from egm.mest import m_estimate

    n, p = X.shape
    s1 = resolve_sigma1(spec, p, sigma1, family)
    graph, k_mask, steps = Graph.complete(p), np.ones((p, p), dtype=bool), []
    W = S = m_estimate(X, spec, tol=tol).scatter
    ld_cur = float(_cholesky_logdet(S[None])[0])
    while graph.edges:
        edges = graph.sorted_edges()
        masks = np.repeat(k_mask[None], len(edges), axis=0)
        for r, (a, b) in enumerate(edges):
            masks[r, a - 1, b - 1] = masks[r, b - 1, a - 1] = False
        scatters = [f.matrix for f in _results(_complete(
            np.broadcast_to(S, masks.shape), masks, completion_tol,
            start=np.broadcast_to(W, masks.shape)))]
        ld = _cholesky_logdet(np.array(scatters)).tolist()
        stat, (a, b), r = min((max(0.0, n * (x - ld_cur) / s1), e, r)
                              for r, (e, x) in enumerate(zip(edges, ld)))
        p_value = float(chdtrc(1, stat))
        if p_value <= alpha:
            break
        graph = graph.without_edge(a, b)
        k_mask[a - 1, b - 1] = k_mask[b - 1, a - 1] = False
        ld_cur, W = ld[r], scatters[r]
        steps.append({"removed_edge": [a, b], "deviance_delta": stat, "p_value": p_value})
    return graph, steps


def selection_matrix(v, p):
    """The len(v) x p^2 matrix picking the entries at the 0-based vec
    positions ``v`` out of vec(A) for a p x p matrix A.  The positions
    must be strictly increasing, so the rows follow the vec(A) order."""
    v = np.asarray(v, dtype=int)
    if np.any(np.diff(v) <= 0):
        raise DimensionError("vec positions must be strictly increasing")
    if v.size and not (0 <= v[0] and v[-1] < p * p):
        raise DimensionError(f"vec positions out of range for p={p}")
    Q = np.zeros((v.size, p * p))
    Q[np.arange(v.size), v] = 1.0
    return Q


def Q_D(index):
    """The dense operator selecting a graph's absent edges D from vec(A)."""
    return selection_matrix(index.D, index.p)


def Q_K(index):
    """The dense operator selecting a graph's edges and diagonal K from vec(A)."""
    return selection_matrix(index.K, index.p)


def asv_oracle(V, index, sigma1, position):
    """``egm.inference.asv_partial_correlation`` one matrix at a time, on 2-D
    arrays: the checked V's inverse K, its derivative row X at the 1-based
    ``position``, and 2 sigma1 <X, K X K> without a graph, or 2 sigma1 w^T
    G^-1 w with w the free entries of X and G the edge-basis Gram matrix
    of V under one, after the zero-pattern check on a second inverse."""
    from egm.covsel import edge_basis_gram, pattern_violation
    from egm.errors import PreconditionError
    from egm.inference import _dpi_row_matrix
    from egm.linops import check_spd, spd_inverse

    V = check_spd(V)
    p = V.shape[0]
    K = spd_inverse(V)
    X = _dpi_row_matrix(K, position[0] - 1, position[1] - 1)
    if index is None:
        return float(2.0 * sigma1 * np.sum(X * (K @ X @ K)))
    if pattern_violation(V, index) > 1e-8:
        raise PreconditionError("inverse of V violates the graph zero pattern")
    j, i = np.divmod(index.K, p)
    w = np.where(i == j, X[i, i], X[i, j] + X[j, i])
    return float(2.0 * sigma1 * w @ np.linalg.solve(edge_basis_gram(V, index), w))


def are_cell_oracle(p, c):
    """One cell of the efficiency table by itself: the cycle concentration
    built entry by entry (after the checks of
    ``egm.inference.chordless_cycle_shape``), its 2-D inverse S, and two
    :func:`asv_oracle` calls at edge (1, 2)."""
    from egm.errors import DefinitenessError, PreconditionError
    from egm.graphs import build_index
    from egm.inference import AreResult
    from egm.linops import spd_inverse

    if p < 4:
        raise PreconditionError(f"the chordless cycle model needs p >= 4, got {p}")
    if not abs(c) < 0.5:
        raise DefinitenessError(f"|c| = {abs(c)} >= 1/2 makes the cycle concentration singular")
    K = np.eye(p)
    for i in range(p):
        K[i, (i + 1) % p] = K[(i + 1) % p, i] = -c
    S = spd_inverse(K)
    asv_u = asv_oracle(S, None, 1.0, (1, 2))
    asv_c = asv_oracle(S, build_index(Graph.cycle(p)), 1.0, (1, 2))
    return AreResult(p, c, asv_u, asv_c, asv_u / asv_c)


def _assemble_oracle(kv, dv, M, LM, L=None, scale=1.0, v=None, s2=0.0):
    """The p^2 x p^2 matrix with blocks M at (kv, kv), LM at (dv, kv), else 0;
    given L, the symmetric scale [[M, LM^T], [LM, LM L^T]] + s2 v v^T, v in
    vec order: every row and column filled, in [kv, dv] order, then one
    gather back to vec order."""
    n, order = kv.size, np.concatenate([kv, dv])
    W = np.zeros((order.size, order.size))
    W[:n, :n], W[n:, :n] = M, LM
    if L is not None:
        W[:n, n:] = LM.T
        np.matmul(LM, L.T, out=W[n:, n:])
        W *= scale
        W += np.outer(s2 * v[order], v[order])
        W += W.T.copy()
        W *= 0.5
    inv = np.argsort(order)
    return W[np.ix_(inv, inv)]


def _derivative_block_oracle(U, index):
    """Vec positions kv (edges and diagonal) and dv (absent edges), both
    triangles, and L = J[dv, kv]: -1/2 B^-1 _pair(U, D, kv) by one LU solve
    of B = _pair(U, D, D), repeated on the rows (i, j) and (j, i)."""
    from egm.covsel import _pair, _rc

    p = index.p
    on_k = index.k_mask.ravel(order="F")
    kv, dv = np.flatnonzero(on_k), np.flatnonzero(~on_k)
    if index.q == 0:
        return kv, dv, np.zeros((0, kv.size))
    i, j = D = _rc(index.D, p)
    X = np.linalg.solve(_pair(U, D, D), _pair(U, D, _rc(kv, p)))
    slot = np.empty((p, p), dtype=int)
    slot[i, j] = slot[j, i] = np.arange(len(i))
    return kv, dv, -0.5 * X[slot[_rc(dv, p)]]


def jacobian_oracle(A, index, tol=1e-12):
    """``egm.covsel.constrain_jacobian`` with every row and column of the
    p^2 x p^2 result computed, from an LU solve of the constraint system."""
    from egm.covsel import _pair, _rc, constrain_scatter
    from egm.linops import spd_inverse

    p = index.p
    U = spd_inverse(constrain_scatter(A, index, tol=tol).matrix) if index.q else None
    kv, dv, L = _derivative_block_oracle(U, index)
    return _assemble_oracle(kv, dv, _pair(np.eye(p), _rc(kv, p), _rc(kv, p)), L)


def general_acov_oracle(V, index, scalars):
    """``egm.covsel.constrained_scatter_acov(form="general")`` with every row
    and column of the p^2 x p^2 result computed, from an LU solve of the
    constraint system."""
    from egm.covsel import _pair, _rc, constrain_scatter
    from egm.linops import spd_inverse, vec

    p = index.p
    VG = constrain_scatter(V, index, tol=1e-12).matrix
    kv, dv, L = _derivative_block_oracle(spd_inverse(VG), index)
    M = _pair(V, _rc(kv, p), _rc(kv, p))
    return _assemble_oracle(kv, dv, M, L @ M, L, 2.0 * scalars.sigma1, vec(VG), scalars.sigma2)
