"""Elliptical sampling and seeded Monte Carlo studies.

Sampling is reproducible down to the bit: replicate r of a study draws
from a fresh generator seeded by the tuple (study seed, r).  The shape
square root uses the symmetric eigendecomposition, which makes a draw
from (mu, S) exactly the affine transform of the standard draw with the
same seed.

The studies fit their replicates in chunks of up to ``_CHUNK`` = 128,
each an (R, n, p) stack that one solver call advances together, tile by
tile of the map, while every replicate stops exactly when it would stop
alone.  A replicate that runs out of iterations or steps, or loses
positive definiteness, fails on its own, with the error of its serial
call, while the others go on.  A replicate's result therefore depends on
neither the chunk size nor the other replicates in its chunk: it equals,
bit for bit, the public serial calls on ``sample(model, n, [seed, r])``,
and so does the reason it failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .covsel import _PATTERN_TOL, pattern_violation
from .errors import ConvergenceError, DimensionError, PreconditionError, _check_size, _integer
from .graphs import GraphIndex
from .inference import _check_nesting, _deviance_stack
from .linops import check_spd
from .mest import (
    EstimatorSpec,
    FitResult,
    _MAX_ITER,
    _check_spec,
    _family_nu,
    _plug_in_and_graphical,
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
_CHUNK = 128


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
        return {**vars(self), "failure_log": [[r, reason] for r, reason in self.failure_log]}

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

    ``n`` is an integer >= 1 and ``seed`` an integer >= 0 or a non-empty
    sequence of them (used by the studies to derive one stream per
    replicate).  Gaussian rows are mu + Z S^{1/2}; t rows divide Z by
    sqrt(chi2_nu / nu) first.
    """
    _check_size(n)
    _check_seed(seed)
    return _draw(model, n, seed, shape_sqrt(model.S))


def _check_seed(seed, sequence: bool = True) -> None:
    """PreconditionError naming the seed unless it is an integer >= 0 or,
    where ``sequence`` allows, a non-empty sequence of them."""
    parts = list(seed) if sequence and isinstance(seed, (list, tuple, np.ndarray)) else [seed]
    if not parts or not all(_integer(s, 0) for s in parts):
        what = "an integer >= 0" + (" or a non-empty sequence of them" if sequence else "")
        raise PreconditionError(f"seed must be {what}, got seed={seed!r}")


def _draw(model: EllipticalModel, n: int, seed, root) -> np.ndarray:
    """:func:`sample` with checked arguments and the shape square root
    ``root`` computed once."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, model.p))
    nu = _family_nu(model.family)
    if nu is not None:
        w = rng.chisquare(nu, n)
        Z = Z / np.sqrt(w / nu)[:, None]
    return model.mu + Z @ root


def _chunks(replicates: int) -> list:
    """The replicate numbers 0..replicates-1 in runs of at most _CHUNK."""
    if not _integer(replicates, 1):
        raise PreconditionError("a study needs an integer count of at least one replicate, "
                                f"got replicates={replicates!r}")
    return [range(lo, min(lo + _CHUNK, replicates)) for lo in range(0, replicates, _CHUNK)]


def _data(model: EllipticalModel, n: int, seed: int, rs, root) -> np.ndarray:
    """The (R, n, p) stack of the replicates ``rs``, each checked as the
    estimators check their data (:func:`_checked`)."""
    X = np.empty((len(rs), n, model.p))
    for x, r in zip(X, rs):
        x[...] = _draw(model, n, [seed, r], root)
    return _checked(X)


def _checked(X) -> np.ndarray:
    """The (R, n, p) stack X if every slice passes the estimators' data
    check, else what the first failing slice raises there.  One rank test
    serves the stack: its batched singular values, and the per-slice means
    it centres by, equal the per-slice ones bit for bit."""
    R, n, p = X.shape
    bad = ~np.isfinite(X).all(axis=(1, 2))
    if n < p + 1:
        bad[:] = True
    elif not bad.all():
        ok = ~bad
        Y = X if ok.all() else X[ok]
        bad[ok] = np.linalg.matrix_rank(Y - Y.mean(axis=1, keepdims=True)) < p
    for r in np.flatnonzero(bad):
        _validate_data(X[r])
    return X


def _record(r: int, outcome, failures: list, label: str = "") -> bool:
    """True if the outcome is a result; a failed fit goes to ``failures``."""
    if isinstance(outcome, ConvergenceError):
        failures.append((r, f"{label}{outcome}"))
    return not isinstance(outcome, ConvergenceError)


def _check_failure_cap(failures: list, total: int) -> None:
    if len(failures) > FAILURE_CAP * total:
        raise ConvergenceError(
            f"{len(failures)} of {total} replicates failed, above the "
            f"{FAILURE_CAP:.0%} cap; first failure: {failures[0][1]}")


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
    _check_seed(seed, sequence=False)
    for n in n_grid:
        _check_size(n)
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or len(set(n_grid)) < len(n_grid):
        raise PreconditionError(f"the n grid must be non-empty and distinct, got {n_grid}")
    _check_spec(spec, model.p)
    if pattern_violation(model.S, index) > _PATTERN_TOL:
        raise PreconditionError(
            "model shape violates the graph: inverse has mass on absent edges")
    root = shape_sqrt(model.S)
    deltas = {str(n): [] for n in n_grid}
    scatter_deltas = {str(n): [] for n in n_grid}
    failures = []
    for rs in chunks:
        X_full = _data(model, n_grid[-1], seed, rs, root)
        by_n = [_plug_in_and_graphical(_checked(np.ascontiguousarray(X_full[:, :n])),
                                       index, spec, tol, _MAX_ITER)
                for n in n_grid]
        for i, r in enumerate(rs):
            for n, fits in zip(n_grid, by_n):
                if not _record(r, fits[i], failures, f"n={n}: "):
                    continue
                plug, fit = fits[i]
                d_mu = float(np.linalg.norm(plug.mu - fit.mu))
                d_S = float(np.linalg.norm(plug.scatter - fit.scatter, ord="fro"))
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
    _check_seed(seed, sequence=False)
    _check_size(n)
    _check_spec(spec, model.p)
    if pattern_violation(model.S, index0) > _PATTERN_TOL:
        raise PreconditionError(
            "model shape violates the null graph: inverse has mass on absent edges")
    scalars = scalars_for(spec, model.family, model.p)
    _check_nesting(index0, index1, scalars.sigma1)
    root = shape_sqrt(model.S)
    stats, failures = [], []
    for rs in chunks:
        out = _solve(_data(model, n, seed, rs, root), spec, tol, _MAX_ITER)
        ok = [i for i, f in enumerate(out) if isinstance(f, FitResult)]
        if ok:
            S = np.array([out[i].scatter for i in ok])
            for i, stat in zip(ok, _deviance_stack(S, index0, index1, n, scalars.sigma1)):
                out[i] = stat
        stats += [o for r, o in zip(rs, out) if _record(r, o, failures)]
    _check_failure_cap(failures, replicates)
    from scipy.special import gammaincinv
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
