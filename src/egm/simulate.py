"""Elliptical sampling and seeded Monte Carlo studies.

Sampling is reproducible down to the bit: replicate r of a study draws
from a fresh generator seeded by the tuple (study seed, r).  The shape
square root uses the symmetric eigendecomposition, which makes a draw
from (mu, S) exactly the affine transform of the standard draw with the
same seed.

The studies fit their replicates in chunks, each chunk an (R, n, p)
stack that one solver call advances together while every replicate
stops exactly when it would stop alone.  A replicate that runs out of
iterations or sweeps fails on its own; any other failure raises for the
whole stack, and then the chunk reruns replicate by replicate, each a
stack of one, which is the serial call.  A replicate's result therefore
depends on neither the chunk size nor the other replicates in its chunk:
it equals, bit for bit, the public serial calls on ``sample(model, n,
[seed, r])``, and so does the reason it failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
from scipy.special import gammaincinv

from .covsel import _complete, pattern_violation
from .errors import (
    ConvergenceError,
    DefinitenessError,
    DimensionError,
    PreconditionError,
    _results,
)
from .graphs import GraphIndex
from .inference import _check_nesting, _deviance_stack
from .linops import check_spd
from .mest import (
    EstimatorSpec,
    FitResult,
    _family_nu,
    _solve,
    _validate_data,
    scalars_for,
)

__all__ = [
    "EllipticalModel",
    "StudyReport",
    "shape_sqrt",
    "sample",
    "equivalence_study",
    "deviance_null_study",
]

#: studies abort when more than this fraction of replicates fails
FAILURE_CAP = 0.02

# replicates fitted together as one stack; results do not depend on it
_CHUNK = 16

# what the kernel can raise for one replicate's data; anything else is a
# bug and propagates
_REPLICATE_ERRORS = (ConvergenceError, np.linalg.LinAlgError, DefinitenessError,
                     DimensionError, PreconditionError)

# the defaults of the serial calls a replicate reproduces: the estimators'
# iteration budget and the completion tolerance of plug-in and deviance
_MAX_ITER = 500
_COMPLETION_TOL = 1e-10


@dataclass(frozen=True)
class EllipticalModel:
    """An elliptical distribution given by location, shape, and family.

    ``family`` is ``gaussian`` or ``t:NU``.
    """

    mu: np.ndarray
    S: np.ndarray
    family: str

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "S", check_spd(self.S))
        if self.mu.shape != (self.S.shape[0],):
            raise DimensionError(
                f"location has shape {self.mu.shape} but shape matrix is {self.S.shape}")
        _family_nu(self.family)  # validates the family string

    @property
    def p(self) -> int:
        return self.S.shape[0]


@dataclass
class StudyReport:
    """Per-replicate metrics plus summary statistics of a seeded study."""

    kind: str
    seed: int
    replicates: int
    metrics: dict
    summary: dict
    failures: int = 0
    failure_log: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "replicates": self.replicates,
            "metrics": self.metrics,
            "summary": self.summary,
            "failures": self.failures,
            "failure_log": [[r, reason] for r, reason in self.failure_log],
        }

    def csv_rows(self) -> list:
        """Per-replicate metrics flattened to (metric, group, replicate, value)."""
        rows = [("metric", "group", "replicate", "value")]
        for name, groups in self.metrics.items():
            for group, values in groups.items():
                for r, v in enumerate(values):
                    rows.append((name, group, r, v))
        return rows


def shape_sqrt(S) -> np.ndarray:
    """Symmetric square root of an SPD matrix via eigendecomposition."""
    S = check_spd(S)
    w, v = np.linalg.eigh(S)
    return (v * np.sqrt(w)) @ v.T


def sample(model: EllipticalModel, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. rows from the model, deterministically in the seed.

    ``seed`` may be an integer or a sequence of integers (used by the
    studies to derive one stream per replicate).  Gaussian rows are
    mu + Z S^{1/2}; t rows divide Z by sqrt(chi2_nu / nu) first.
    """
    return _draw(model, n, seed, shape_sqrt(model.S))


def _draw(model: EllipticalModel, n: int, seed, root) -> np.ndarray:
    """:func:`sample` with the shape square root ``root`` computed once."""
    if n < 1:
        raise PreconditionError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, model.p))
    nu = _family_nu(model.family)
    if nu is not None:
        w = rng.chisquare(nu, n)
        Z = Z / np.sqrt(w / nu)[:, None]
    return model.mu + Z @ root


def _chunks(replicates: int) -> list:
    """The replicate numbers 0..replicates-1 in runs of at most _CHUNK."""
    if replicates < 1:
        raise PreconditionError(f"a study needs at least one replicate, got {replicates}")
    return [range(lo, min(lo + _CHUNK, replicates)) for lo in range(0, replicates, _CHUNK)]


def _data(model: EllipticalModel, n: int, seed: int, rs, root) -> np.ndarray:
    """The (R, n, p) stack of the replicates ``rs``, each checked as the
    estimators check their data."""
    return np.array([_validate_data(_draw(model, n, [seed, r], root)) for r in rs])


def _run_chunk(kernel, X) -> list:
    """``kernel`` on the (R, n, p) stack X of a chunk: one outcome, a result or
    an exception, per replicate.  If the stacked call raises, each replicate
    reruns alone as a stack of one, and its outcome is what that raises."""
    try:
        return kernel(X)
    except _REPLICATE_ERRORS:
        pass
    out = []
    for x in X:
        try:
            out += kernel(x[None])
        except _REPLICATE_ERRORS as exc:
            out.append(exc)
    return out


def _record(r: int, outcome, failures: list, label: str = "") -> bool:
    """True if the outcome is a result; a failed fit goes to ``failures``
    and any other exception is raised, as in a serial loop over replicates."""
    if isinstance(outcome, (ConvergenceError, np.linalg.LinAlgError)):
        failures.append((r, f"{label}{outcome}"))
        return False
    _results([outcome])
    return True


def _check_failure_cap(failures: list, total: int) -> None:
    if len(failures) > FAILURE_CAP * total:
        raise ConvergenceError(
            f"{len(failures)} of {total} replicates failed, above the "
            f"{FAILURE_CAP:.0%} cap; first failure: {failures[0][1]}")


def _both_fits(X, index: GraphIndex, spec: EstimatorSpec, tol: float) -> list:
    """plug_in_estimate, then graphical_m_estimate, on each slice of X:
    per slice the pair of (mu, scatter) estimates, or the ConvergenceError
    of the first fit that runs out of budget."""
    out = _solve(X, spec, tol, _MAX_ITER)
    ok = [i for i, f in enumerate(out) if isinstance(f, FitResult)]
    if ok:
        completed = _complete(np.array([out[i].scatter for i in ok]), index, _COMPLETION_TOL)
        for i, c in zip(ok, completed):
            out[i] = c if isinstance(c, Exception) else (out[i].mu, c.matrix)
    ok = [i for i, o in enumerate(out) if isinstance(o, tuple)]
    if ok:
        for i, f in zip(ok, _solve(X[ok], spec, tol, _MAX_ITER, index)):
            out[i] = f if isinstance(f, Exception) else (out[i], (f.mu, f.scatter))
    return out


def equivalence_study(index: GraphIndex, model: EllipticalModel,
                      spec: EstimatorSpec, n_grid, replicates: int,
                      seed: int, tol: float = 1e-9) -> StudyReport:
    """Compare plug-in and graph-constrained M-estimates across sample sizes.

    For each replicate and each n the discrepancy is
    sqrt(n) * (|mu_P - mu_M| + |vec(S_P - S_M)|); the scatter-only part
    is reported separately.  A decreasing median across the n grid is
    the asymptotic-equivalence signature.  The model's inverse shape
    must carry the graph's zero pattern, and the n of the grid must be
    distinct.  Replicate r at n fits the first n rows of
    ``sample(model, max(n_grid), [seed, r])``.
    """
    chunks = _chunks(replicates)
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or len(set(n_grid)) < len(n_grid):
        raise PreconditionError(f"the n grid must be non-empty and distinct, got {n_grid}")
    if pattern_violation(model.S, index) > 1e-8:
        raise PreconditionError(
            "model shape violates the graph: inverse has mass on absent edges")
    root = shape_sqrt(model.S)
    deltas = {str(n): [] for n in n_grid}
    scatter_deltas = {str(n): [] for n in n_grid}
    failures = []
    for rs in chunks:
        X_full = _data(model, n_grid[-1], seed, rs, root)
        by_n = [_run_chunk(lambda X: _both_fits(X, index, spec, tol),
                           np.array([_validate_data(x[:n]) for x in X_full]))
                for n in n_grid]
        for i, r in enumerate(rs):
            for n, fits in zip(n_grid, by_n):
                if not _record(r, fits[i], failures, f"n={n}: "):
                    continue
                (mu_p, S_p), (mu_m, S_m) = fits[i]
                d_mu = float(np.linalg.norm(mu_p - mu_m))
                d_S = float(np.linalg.norm(S_p - S_m, ord="fro"))
                deltas[str(n)].append(np.sqrt(n) * (d_mu + d_S))
                scatter_deltas[str(n)].append(np.sqrt(n) * d_S)
    _check_failure_cap(failures, replicates * len(n_grid))
    summary = {
        "median_delta": {k: float(np.median(v)) for k, v in deltas.items() if v},
        "median_scatter_delta": {k: float(np.median(v)) for k, v in scatter_deltas.items() if v},
    }
    return StudyReport("equivalence", seed, replicates,
                       {"delta": deltas, "scatter_delta": scatter_deltas},
                       summary, len(failures), failures)


def deviance_null_study(index0: GraphIndex, index1: GraphIndex,
                        model: EllipticalModel, spec: EstimatorSpec,
                        n: int, replicates: int, seed: int,
                        tol: float = 1e-9) -> StudyReport:
    """Null distribution of the rescaled deviance against its chi-square limit.

    The model shape must satisfy the null graph.  sigma1 comes from the
    scalar routines for (spec, model family); the summary reports
    empirical quantiles of the statistic next to the chi-square
    reference at 0.5, 0.9, 0.95 and 0.99.  Replicate r is
    :func:`egm.mest.m_estimate` and :func:`egm.inference.deviance` on
    ``sample(model, n, [seed, r])``.
    """
    chunks = _chunks(replicates)
    if pattern_violation(model.S, index0) > 1e-8:
        raise PreconditionError(
            "model shape violates the null graph: inverse has mass on absent edges")
    scalars = scalars_for(spec, model.family, model.p)
    _check_nesting(index0, index1, scalars.sigma1)
    root = shape_sqrt(model.S)
    stats = []
    failures = []

    def fit_and_test(X):
        out = _solve(X, spec, tol, _MAX_ITER)
        ok = [i for i, f in enumerate(out) if isinstance(f, FitResult)]
        if ok:
            S = np.array([out[i].scatter for i in ok])
            for i, stat in zip(ok, _deviance_stack(S, index0, index1, n, scalars.sigma1,
                                                   _COMPLETION_TOL)):
                out[i] = stat
        return out

    for rs in chunks:
        outcome = _run_chunk(fit_and_test, _data(model, n, seed, rs, root))
        stats += [o for r, o in zip(rs, outcome) if _record(r, o, failures)]
    _check_failure_cap(failures, replicates)
    df = index0.q - index1.q
    probs = (0.5, 0.9, 0.95, 0.99)
    summary = {
        "df": df,
        "sigma1": scalars.sigma1,
        "n": n,
        "empirical_quantiles": {str(q): float(np.quantile(stats, q)) for q in probs},
        "reference_quantiles": {str(q): float(2 * gammaincinv(df / 2, q)) for q in probs},
    }
    return StudyReport("deviance-null", seed, replicates,
                       {"deviance": {str(n): stats}}, summary,
                       len(failures), failures)
