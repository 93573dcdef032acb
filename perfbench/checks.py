"""Output checks of the benchmark operations.

Every check takes the parsed output of one operation and returns
``(failed units, problems)``: failed units are the replicates a study
reports in ``failures``, problems are broken output checks.  Checks run
outside the timed region and hold for any seed: they re-derive what the
output must satisfy instead of comparing against stored numbers, except
for the efficiency table, whose 91 cells are the paper's Table 1.

Completed matrices are re-verified in numpy against the defining
conditions: entries on edges and the diagonal match the input, and the
inverse vanishes on absent edges.  Fits must report ``converged`` and a
residual at most the solver tolerance, and their estimating equations
are re-evaluated at the reported estimate.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np
import scipy.stats

import egm.covsel
import egm.graphs
from egm.covsel import AsymptoticScalars, constrain_scatter
from egm.graphs import Graph, build_index
from egm.mest import graphical_m_estimate, m_estimate, make_spec, plug_in_estimate
from egm.simulate import EllipticalModel, sample
from inputs import T_NU

#: tolerance the CLI solvers run at (its ``--tol`` default)
SOLVER_TOL = 1e-9
#: slack of the numpy re-verification (the solvers stop at 1e-9 or 1e-10)
VERIFY_TOL = 1e-8

TABLE1_P = [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 20, 30, 50]
TABLE1_C = [0.0, -0.05, -0.1, -0.2, -0.3, -0.4, -0.49]
TABLE1 = [
    [1.00] * 13,
    [1.01] * 13,
    [1.02] * 13,
    [1.08] + [1.09] * 12,
    [1.18, 1.24] + [1.23] * 11,
    [1.32, 1.55, 1.49, 1.54, 1.52, 1.54, 1.53, 1.53, 1.53, 1.53, 1.53, 1.53, 1.53],
    [1.48, 2.27, 1.93, 2.43, 2.12, 2.44, 2.22, 2.43, 2.27, 2.41, 2.35, 2.36, 2.36],
]


def t_mle_sigma1(p: int, nu: float = T_NU) -> float:
    """sigma1 of the elliptical-t MLE in closed form, (p+nu+2)/(p+nu)."""
    return (p + nu + 2.0) / (p + nu)


# ---------------------------------------------------------------- graphs


def read_edges(path) -> tuple:
    """(p, edges) of a plain-text graph file."""
    lines = [ln.split("#", 1)[0].split() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    p = int(lines[0][1])
    return p, [(int(a), int(b)) for a, b in lines[1:]]


def masks(p: int, edges) -> tuple:
    """Boolean masks of (edges and diagonal, absent edges)."""
    k = np.eye(p, dtype=bool)
    for a, b in edges:
        k[a - 1, b - 1] = k[b - 1, a - 1] = True
    return k, ~k


def egm_index(p: int, edges):
    return build_index(Graph.from_edges(p, edges))


# -------------------------------------------------------------- numerics


def completion_problems(Sigma, A, p: int, edges, label: str) -> list:
    """Defining conditions of the completion of A under the graph."""
    k, d = masks(p, edges)
    out = []
    scale = max(1.0, float(np.max(np.abs(A))))
    if not np.all(np.isfinite(Sigma)) or np.max(np.abs(Sigma - Sigma.T)) > VERIFY_TOL * scale:
        return [f"{label}: completed matrix is not finite and symmetric"]
    match = float(np.max(np.abs((Sigma - A)[k])))
    if match > VERIFY_TOL * scale:
        out.append(f"{label}: edge/diagonal entries differ from the input by {match:.3e}")
    if d.any():
        zero = float(np.max(np.abs(np.linalg.inv(Sigma)[d])))
        if zero > VERIFY_TOL:
            out.append(f"{label}: inverse is {zero:.3e} on an absent edge")
    if np.min(np.linalg.eigvalsh(Sigma)) <= 0:
        out.append(f"{label}: completed matrix is not positive definite")
    return out


def weights(est: str, p: int, R):
    """(u1, u2) of an estimator spec at squared radii R."""
    if est == "gaussian":
        one = np.ones_like(R)
        return one, one
    if est.startswith("t:"):
        nu = float(est[2:])
        w = (p + nu) / (nu + R)
        return w, w
    if est.startswith("huber:"):
        k = float(est[6:])
        k2 = k * k
        # Gaussian consistency: E[min(R, k^2)] = p F_{p+2}(k^2) + k^2 (1 - F_p(k^2))
        e = p * scipy.stats.chi2.cdf(k2, p + 2) + k2 * scipy.stats.chi2.sf(k2, p)
        R = np.maximum(R, 1e-300)
        return np.minimum(1.0, k / np.sqrt(R)), (p / e) * np.minimum(1.0, k2 / R)
    raise ValueError(f"unknown estimator {est!r}")


def m_step(X, mu, S, est: str):
    """One reweighting step (location, scatter) at the estimate (mu, S)."""
    n, p = X.shape
    L = np.linalg.cholesky(S)
    Y = np.linalg.solve(L, (X - mu).T)
    w1, w2 = weights(est, p, np.einsum("ij,ij->j", Y, Y))
    mu_fix = (w1[:, None] * X).sum(axis=0) / w1.sum()
    Xc = X - mu
    return mu_fix, (w2[:, None] * Xc).T @ Xc / n


def equation_problems(X, mu, S, est: str, label: str, edges=None) -> list:
    """Estimating equations at (mu, S); constrained to the graph if edges given."""
    p = X.shape[1]
    mu_fix, W = m_step(X, mu, S, est)
    scale = max(1.0, float(np.max(np.abs(S))))
    k, d = masks(p, edges) if edges is not None else (np.ones((p, p), bool), None)
    res = max(float(np.max(np.abs(mu_fix - mu))), float(np.max(np.abs((W - S)[k]))) / scale)
    if d is not None and d.any():
        res = max(res, float(np.max(np.abs(np.linalg.inv(S)[d]))))
    return [f"{label}: estimating equations off by {res:.3e}"] if res > VERIFY_TOL else []


def fit_flag_problems(fit: dict, label: str) -> list:
    if fit["converged"] is not True:
        return [f"{label}: not converged"]
    if not fit["residual"] <= SOLVER_TOL:
        return [f"{label}: residual {fit['residual']} above {SOLVER_TOL}"]
    return []


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def finite_nonneg(values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) and v >= 0 for v in values)


def matrix(obj: dict) -> np.ndarray:
    return np.array(obj["rows"], dtype=float)


@functools.lru_cache(maxsize=4)
def load_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


@functools.lru_cache(maxsize=4)
def unconstrained_fit(path: str, est: str):
    """The unconstrained M-estimate of a data file, verified in numpy."""
    X = load_csv(path)
    fit = m_estimate(X, make_spec(est, X.shape[1]))
    return fit, equation_problems(X, fit.mu, fit.scatter, est, "unconstrained refit")


def study_model(work: Path, est: str):
    return EllipticalModel(np.zeros(5), load_csv(str(work / "shape5.csv")), est)


# ---------------------------------------------------------------- checks


class NullStudy:
    """Deviance-null study: counts, finiteness, sigma1, and replicate 0 redone."""

    def __init__(self, work: Path, est: str, seed: int, replicates: int):
        self.work, self.est, self.seed, self.R = work, est, seed, replicates

    def __call__(self, out: dict):
        fails = int(out["failures"])
        stats = out["metrics"]["deviance"]["500"]
        s = out["summary"]
        probs = []
        if len(stats) + fails != self.R:
            probs.append(f"{len(stats)} statistics + {fails} failures != {self.R} replicates")
        if not finite_nonneg(stats):
            probs.append("a deviance statistic is not finite and >= 0")
        if s["df"] != 1:
            probs.append(f"df {s['df']} != 1")
        want = 1.0 if self.est == "gaussian" else t_mle_sigma1(5)
        if not close(s["sigma1"], want, 1e-6):
            probs.append(f"sigma1 {s['sigma1']} != {want}")
        if not finite_nonneg(list(s["empirical_quantiles"].values())):
            probs.append("empirical quantiles not finite")
        if fails == 0 and stats:
            probs += self._replicate_zero(stats[0], s["sigma1"])
        return fails, probs

    def _replicate_zero(self, reported: float, sigma1: float) -> list:
        X = sample(study_model(self.work, self.est), 500, seed=[self.seed, 0])
        fit = m_estimate(X, make_spec(self.est, 5))
        probs = equation_problems(X, fit.mu, fit.scatter, self.est, "replicate 0 fit")
        p0, e0 = read_edges(self.work / "cycle5.g")
        p1, e1 = read_edges(self.work / "cycle5_chord.g")
        lds = []
        for p, e, name in ((p0, e0, "null"), (p1, e1, "alternative")):
            Sig = constrain_scatter(fit.scatter, egm_index(p, e), tol=1e-10).matrix
            probs += completion_problems(Sig, fit.scatter, p, e, f"replicate 0 {name} completion")
            lds.append(np.linalg.slogdet(Sig)[1])
        stat = max(0.0, 500 * (lds[0] - lds[1]) / sigma1)
        if not close(stat, reported):
            probs.append(f"replicate 0 deviance {reported} != recomputed {stat}")
        return probs


class EquivStudy:
    """Equivalence study: counts, finiteness, Gaussian identity, replicate 0 redone."""

    def __init__(self, work: Path, est: str, seed: int, replicates: int, grid):
        self.work, self.est, self.seed, self.R, self.grid = work, est, seed, replicates, grid

    def __call__(self, out: dict):
        fails = int(out["failures"])
        deltas = out["metrics"]["delta"]
        probs = []
        count = sum(len(v) for v in deltas.values())
        if count + fails != self.R * len(self.grid):
            probs.append(f"{count} deltas + {fails} failures != {self.R} x {len(self.grid)}")
        for group in ("delta", "scatter_delta"):
            if not all(finite_nonneg(v) for v in out["metrics"][group].values()):
                probs.append(f"a {group} value is not finite and >= 0")
        if self.est == "gaussian":
            for n, med in out["summary"]["median_delta"].items():
                if not med <= 1e-7:
                    probs.append(f"gaussian median_delta at n={n} is {med}, above 1e-7")
        n0 = str(self.grid[0])
        if fails == 0 and deltas[n0]:
            probs += self._replicate_zero(deltas[n0][0])
        return fails, probs

    def _replicate_zero(self, reported: float) -> list:
        n = self.grid[0]
        X = sample(study_model(self.work, self.est), max(self.grid), seed=[self.seed, 0])[:n]
        spec = make_spec(self.est, 5)
        p, e = read_edges(self.work / "cycle5.g")
        idx = egm_index(p, e)
        fu = m_estimate(X, spec)
        fp = plug_in_estimate(X, idx, spec)
        fm = graphical_m_estimate(X, idx, spec)
        probs = equation_problems(X, fu.mu, fu.scatter, self.est, "replicate 0 unconstrained")
        probs += completion_problems(fp.scatter, fu.scatter, p, e, "replicate 0 plug-in")
        if np.max(np.abs(fp.mu - fu.mu)) > VERIFY_TOL:
            probs.append("replicate 0 plug-in location differs from the unconstrained one")
        probs += fit_flag_problems({"converged": fm.converged, "residual": fm.residual},
                                   "replicate 0 graphical")
        probs += equation_problems(X, fm.mu, fm.scatter, self.est, "replicate 0 graphical", e)
        delta = np.sqrt(n) * (np.linalg.norm(fp.mu - fm.mu)
                              + np.linalg.norm(fp.scatter - fm.scatter, ord="fro"))
        if not close(float(delta), reported):
            probs.append(f"replicate 0 delta {reported} != recomputed {delta}")
        return probs


class Search:
    """Backward elimination: audit trail, final completion, stopping rule."""

    def __init__(self, data: Path, est: str, alpha: float):
        self.data, self.est, self.alpha = str(data), est, alpha

    def __call__(self, out: dict):
        X = load_csv(self.data)
        n, p = X.shape
        probs = []
        # the data family is t:5: kurtosis 6/(nu-4) gives the sample covariance 1 + 6/3
        want = 3.0 if self.est == "gaussian" else t_mle_sigma1(p)
        if out["n"] != n or not close(out["sigma1"], want, 1e-6):
            probs.append(f"n={out['n']} sigma1={out['sigma1']}, expected {n} and {want}")
        edges = [tuple(e) for e in out["edges"]]
        removed = [tuple(s["removed_edge"]) for s in out["steps"]]
        if len(edges) + len(removed) != p * (p - 1) // 2 or set(edges) & set(removed):
            probs.append("final edges and removed edges do not partition the complete graph")
        for s in out["steps"]:
            if not (s["p_value"] > self.alpha and finite_nonneg([s["deviance_delta"]])):
                probs.append(f"step {s} removed a significant edge")
        fit, eq = unconstrained_fit(self.data, self.est)
        probs += eq
        S = fit.scatter
        final = constrain_scatter(S, egm_index(p, edges), tol=1e-10).matrix
        probs += completion_problems(final, S, p, edges, "final graph completion")
        if edges:
            ld = np.linalg.slogdet(final)[1]
            best = min(
                max(0.0, n * (np.linalg.slogdet(constrain_scatter(
                    S, egm_index(p, [f for f in edges if f != e]), tol=1e-10).matrix)[1]
                    - ld) / out["sigma1"])
                for e in edges)
            if scipy.stats.chi2.sf(best, 1) > self.alpha:
                probs.append(f"search stopped although an edge is removable (deviance {best})")
        return 0, probs


class AreTable:
    """Every efficiency cell equals its Table 1 value within 1e-9."""

    def __call__(self, out: dict):
        want = {(p, round(c, 2)): TABLE1[i][j]
                for i, c in enumerate(TABLE1_C) for j, p in enumerate(TABLE1_P)}
        probs = []
        cells = 0
        for i, c in enumerate(out["c"]):
            for j, p in enumerate(out["p"]):
                cells += 1
                if abs(out["are"][i][j] - want[p, round(c, 2)]) > 1e-9:
                    probs.append(f"ARE(p={p}, c={c}) = {out['are'][i][j]}, "
                                 f"Table 1 has {want[p, round(c, 2)]}")
        if cells != len(out["p"]) * len(out["c"]) or cells == 0:
            probs.append("table is not a full grid")
        return 0, probs


class Acov:
    """General-form covariance at p=q: symmetric, finite, tangent to the graph.

    Every column of the covariance, as a q x q matrix dS, is a direction
    along which the completion stays on the graph, so U dS U vanishes on
    absent edges (U the inverse of the completed matrix).
    """

    SCALARS = (1.4, 0.2)

    def __init__(self, v_path: Path, graph_path: Path):
        self.graph_path = graph_path
        self.V = np.load(v_path)

    def compute(self):
        # through the module attributes, so a traced pass sees these calls
        index = egm.graphs.build_index(egm.graphs.read_graph(self.graph_path))
        return egm.covsel.constrained_scatter_acov(
            self.V, index, AsymptoticScalars(*self.SCALARS), form="general")

    def __call__(self, data: bytes):
        q = self.V.shape[0]
        W = np.frombuffer(data, dtype=float).reshape(q * q, q * q)
        if not (np.all(np.isfinite(W)) and np.array_equal(W, W.T)):
            return 0, ["covariance is not finite and symmetric"]
        p, e = read_edges(self.graph_path)
        Sig = constrain_scatter(self.V, egm_index(p, e), tol=1e-12).matrix
        probs = completion_problems(Sig, self.V, p, e, "acov completion")
        U = np.linalg.inv(Sig)
        _, d = masks(p, e)
        for j in np.linspace(0, q * q - 1, 7).astype(int):
            T = U @ W[:, j].reshape(q, q, order="F") @ U
            if np.max(np.abs(T[d])) > VERIFY_TOL * np.max(np.abs(T)):
                probs.append(f"covariance column {j} leaves the graph")
        return 0, probs


class Fit:
    """``egm fit``: flags, estimating equations, completion, scalars."""

    def __init__(self, data: Path, graph: Path, est: str, method: str):
        self.data, self.graph, self.est, self.method = str(data), graph, est, method

    def __call__(self, out: dict):
        X = load_csv(self.data)
        n, p = X.shape
        _, edges = read_edges(self.graph)
        probs = []
        if (out["n"], out["p"]) != (n, p):
            probs.append(f"shape ({out['n']}, {out['p']}) != ({n}, {p})")
        parts = ("plugin", "graphical") if self.method == "both" else (self.method,)
        for part in parts:
            fit = out[part]
            mu, S = np.array(fit["mu"]), matrix(fit["scatter"])
            probs += fit_flag_problems(fit, part)
            K = np.linalg.inv(S)
            pc = -K / np.sqrt(np.outer(np.diag(K), np.diag(K)))
            np.fill_diagonal(pc, 0.0)
            got = np.array([[0.0 if v is None else v for v in row]
                            for row in fit["partial_correlations"]["rows"]])
            if np.max(np.abs(got - pc)) > 1e-10:
                probs.append(f"{part}: partial correlations do not match the scatter")
            if part == "graphical":
                probs += equation_problems(X, mu, S, self.est, part, edges)
            else:
                ufit, eq = unconstrained_fit(self.data, self.est)
                probs += eq + completion_problems(S, ufit.scatter, p, edges, part)
                if np.max(np.abs(mu - ufit.mu)) > VERIFY_TOL:
                    probs.append("plugin location differs from the unconstrained fit")
        if "scalars" in out:
            sc = out["scalars"]
            if not close(sc["sigma1"], t_mle_sigma1(p), 1e-6):
                probs.append(f"sigma1 {sc['sigma1']} != {t_mle_sigma1(p)}")
            if not (math.isfinite(sc["sigma2"]) and sc["eta"] > 0):
                probs.append("sigma2/eta not finite")
        return 0, probs
