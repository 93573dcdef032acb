"""Elliptical sampling and seeded Monte Carlo studies.

Sampling is reproducible down to the bit: replicate r of a study draws
from a fresh generator seeded by the tuple (study seed, r), so studies
can be rerun or parallelized without changing results.  The shape
square root uses the symmetric eigendecomposition, which makes a draw
from (mu, S) exactly the affine transform of the standard draw with the
same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
import scipy.stats

from .covsel import pattern_violation
from .errors import ConvergenceError, DimensionError, PreconditionError
from .graphs import GraphIndex
from .inference import deviance
from .linops import check_spd
from .mest import (
    EstimatorSpec,
    RadialLaw,
    graphical_m_estimate,
    m_estimate,
    plug_in_estimate,
    radial_for_family,
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


@dataclass(frozen=True)
class EllipticalModel:
    """An elliptical distribution given by location, shape, and family.

    ``family`` is ``gaussian`` or ``t:NU``; the radial law of the
    squared Mahalanobis radius is derived from it.
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
        radial_for_family(self.family, self.p)  # validates the family string

    @property
    def p(self) -> int:
        return self.S.shape[0]

    @property
    def radial(self) -> RadialLaw:
        return radial_for_family(self.family, self.p)


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
    if n < 1:
        raise PreconditionError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, model.p))
    if model.family.startswith("t:"):
        nu = float(model.family[2:])
        w = rng.chisquare(nu, n)
        Z = Z / np.sqrt(w / nu)[:, None]
    return model.mu + Z @ shape_sqrt(model.S)


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
    must carry the graph's zero pattern.
    """
    if pattern_violation(model.S, index) > 1e-8:
        raise PreconditionError(
            "model shape violates the graph: inverse has mass on absent edges")
    n_grid = sorted(int(n) for n in n_grid)
    n_max = n_grid[-1]
    deltas = {str(n): [] for n in n_grid}
    scatter_deltas = {str(n): [] for n in n_grid}
    failures = []
    for r in range(replicates):
        X_full = sample(model, n_max, seed=[seed, r])
        for n in n_grid:
            X = X_full[:n]
            try:
                fit_p = plug_in_estimate(X, index, spec, tol=tol)
                fit_m = graphical_m_estimate(X, index, spec, tol=tol)
            except (ConvergenceError, np.linalg.LinAlgError) as exc:
                failures.append((r, f"n={n}: {exc}"))
                continue
            d_mu = float(np.linalg.norm(fit_p.mu - fit_m.mu))
            d_S = float(np.linalg.norm(fit_p.scatter - fit_m.scatter, ord="fro"))
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
    reference at 0.5, 0.9, 0.95 and 0.99.
    """
    if pattern_violation(model.S, index0) > 1e-8:
        raise PreconditionError(
            "model shape violates the null graph: inverse has mass on absent edges")
    scalars = scalars_for(spec, model.family, model.p)
    stats = []
    failures = []
    for r in range(replicates):
        X = sample(model, n, seed=[seed, r])
        try:
            fit = m_estimate(X, spec, tol=tol)
            rep = deviance(fit.scatter, index0, index1, n, scalars.sigma1)
        except (ConvergenceError, np.linalg.LinAlgError) as exc:
            failures.append((r, str(exc)))
            continue
        stats.append(rep.statistic)
    _check_failure_cap(failures, replicates)
    df = index0.q - index1.q
    probs = (0.5, 0.9, 0.95, 0.99)
    summary = {
        "df": df,
        "sigma1": scalars.sigma1,
        "n": n,
        "empirical_quantiles": {str(q): float(np.quantile(stats, q)) for q in probs},
        "reference_quantiles": {str(q): float(scipy.stats.chi2.ppf(q, df)) for q in probs},
    }
    return StudyReport("deviance-null", seed, replicates,
                       {"deviance": {str(n): stats}}, summary,
                       len(failures), failures)
