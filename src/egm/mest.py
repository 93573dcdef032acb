"""Multivariate M-estimators of location and scatter.

Provides one fixed-point solver of the simultaneous location/scatter
equations, unconstrained or graph-constrained, the plug-in estimator, and the
asymptotic scalars (sigma1, sigma2, eta) of the three classical cases:
sample covariance, elliptical maximum likelihood, and general monotone
M-estimators.

Each evaluation of the fixed-point map takes one Newton-like step.  It
first moves the scatter along its scale ray, S -> S/s, by one Newton step
on the trace identity mean phi2(s r_i) = p, which every fixed point meets
at s = 1 while the map itself leaves the scale direction almost neutral.
It then over-relaxes the map's output by the Newton factors of its shape
and location blocks at an elliptical fixed point.  All three factors come
from the sample radii and the weight functions alone, so the step changes
no fixed point and removes the slowest modes of the iteration.

A graph-constrained fit starts at the plug-in estimate, which the
asymptotic equivalence of the two estimators puts O_p(1/n) from the
graphical fixed point.  So Gaussian weights take a single evaluation, and
the others a few, each completed by a few warm-started Newton steps.  It
is the only start: a fit whose plug-in fails fails with the plug-in's error.

Built-in weight families, addressable by string:

* ``gaussian``      constant weights; reproduces mean / covariance,
* ``t:NU``          elliptical-t maximum-likelihood weights,
* ``huber:K``       Huber weights, scatter part rescaled to be
                    consistent at the Gaussian distribution.

Tyler's distribution-free estimator (u2(s) = p/s) is deliberately not
offered for graphical fitting: its phi2 is constant, which sits on the
boundary of the monotonicity assumptions, and its scale indeterminacy
does not mix well with the constrained estimating equations.

Gaussian weights (the sample covariance, by the family's kurtosis) and the
t maximum-likelihood estimator at its own family have closed-form scalars;
every other pairing integrates its radial law's density by adaptive
quadrature.  Distribution functions come from ``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add
from typing import Callable, Optional

import numpy as np

from .covsel import AsymptoticScalars, _complete, _newton, _off_pattern
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    DimensionError,
    PreconditionError,
    SampleSizeError,
    _check_budget,
    _integer,
    _positive,
    _results,
)
from .graphs import GraphIndex
from .linops import _has_cholesky, _per_slice

__all__ = [
    "EstimatorSpec",
    "FitResult",
    "RadialLaw",
    "make_spec",
    "radial_for_family",
    "m_estimate",
    "graphical_m_estimate",
    "plug_in_estimate",
    "sample_cov_scalars",
    "mle_scalars",
    "m_scalars",
    "scalars_for",
]


@dataclass(frozen=True)
class EstimatorSpec:
    """A weight-function pair (u1, u2) identifying an M-estimator family.

    ``u1`` weighs the location equation, ``u2`` the scatter equation;
    both take squared Mahalanobis radii (vectorized).  ``phi2_prime`` is
    the derivative of phi2(s) = s*u2(s) where known analytically.
    """

    name: str
    u1: Callable[[np.ndarray], np.ndarray]
    u2: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    phi2_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def phi1(self, s):
        s = np.asarray(s, dtype=float)
        return s * self.u1(s)

    def phi2(self, s):
        s = np.asarray(s, dtype=float)
        return s * self.u2(s)

    def check_monotone(self) -> None:
        """Verify u1, u2 non-increasing and phi1, phi2 non-decreasing.

        Checked within 1e-10 on a grid of 1000 points over (0, 100]; raises
        PreconditionError on violation, a NaN value included.
        """
        grid = np.linspace(0.1, 100.0, 1000)
        for label, f, sign in (("u1", self.u1, -1), ("u2", self.u2, -1),
                               ("phi1", self.phi1, 1), ("phi2", self.phi2, 1)):
            d = sign * np.diff(np.asarray(f(grid), dtype=float))
            if not np.all(d >= -1e-10):
                kind = "non-increasing" if sign < 0 else "non-decreasing"
                raise PreconditionError(f"{label} of spec {self.name!r} is not {kind}")


def _dimension(p, what: str) -> None:
    """PreconditionError naming p unless it is an integer >= 1."""
    if not _integer(p, 1):
        raise PreconditionError(f"{what} needs an integer dimension p >= 1, got p={p!r}")


def _parameter(text: str, prefix: str, what: str) -> float:
    """The number after ``prefix`` in ``text``, finite and > 0, else
    PreconditionError naming ``what`` and the accepted forms."""
    try:
        x = float(text[len(prefix):])
    except ValueError:
        raise PreconditionError(
            f"{what} in {text!r} is not a number; accepted forms are "
            "gaussian, t:NU and huber:K") from None
    return _positive(x, what)


def _family_nu(family: str) -> Optional[float]:
    """Parse a named elliptical family: None for ``gaussian``, NU for ``t:NU``."""
    family = family.strip()
    if family == "gaussian":
        return None
    if family.startswith("t:"):
        return _parameter(family, "t:", "t degrees of freedom")
    raise PreconditionError(f"unknown elliptical family {family!r}")


def make_spec(text: str, p: int) -> EstimatorSpec:
    """Build an estimator spec from its string form for dimension p.

    Accepted forms: ``gaussian``, ``t:NU`` and ``huber:K``, with NU and K
    finite and > 0, and p an integer >= 1; ``params["p"]`` records p,
    which data must match.
    The Huber scatter weight is rescaled by the consistency constant
    c = p / E[min(R, k^2)] = p / {p F_{p+2}(k^2) + k^2 (1 - F_p(k^2))} under
    the chi-square(p) radial law, with F_d the chi-square(d) CDF.
    """
    _dimension(p, f"estimator spec {text!r}")
    text = text.strip()
    if text == "gaussian":
        one = lambda s: np.ones_like(np.asarray(s, dtype=float))
        spec = EstimatorSpec("gaussian", one, one, {"p": p},
                             phi2_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)))
    elif text.startswith("t:"):
        nu = _parameter(text, "t:", "t degrees of freedom")
        a = p + nu

        def u(s, nu=nu, a=a):
            return a / (nu + np.asarray(s, dtype=float))

        def dphi2(s, nu=nu, a=a):
            return a * nu / (nu + np.asarray(s, dtype=float)) ** 2

        spec = EstimatorSpec(text, u, u, {"nu": nu, "p": p}, phi2_prime=dphi2)
    elif text.startswith("huber:"):
        k = _parameter(text, "huber:", "huber threshold")
        from scipy.special import chdtr, chdtrc
        k2 = k * k
        c = p / (p * chdtr(p + 2, k2) + k2 * chdtrc(p, k2))

        def u1(s, k=k):
            # the floor only dodges a 0/0 warning; the weight is 1 there
            s = np.maximum(np.asarray(s, dtype=float), 1e-300)
            return np.minimum(1.0, k / np.sqrt(s))

        def u2(s, c=c, k2=k2):
            s = np.maximum(np.asarray(s, dtype=float), 1e-300)
            return c * np.minimum(1.0, k2 / s)

        def dphi2(s, c=c, k2=k2):
            return np.where(np.asarray(s, dtype=float) < k2, c, 0.0)

        spec = EstimatorSpec(text, u1, u2, {"k": k, "c": c, "p": p}, phi2_prime=dphi2)
    else:
        raise PreconditionError(f"unknown estimator spec {text!r}")
    spec.check_monotone()
    return spec


def _check_spec(spec: EstimatorSpec, p: int) -> None:
    """DimensionError if ``spec`` was built for a dimension other than p."""
    built = spec.params.get("p")
    if built is not None and built != p:
        raise DimensionError(f"estimator spec {spec.name!r} was built for p={built}, not for p={p}")


@dataclass(frozen=True)
class RadialLaw:
    """Distribution of the squared radius R of an elliptical law in p >= 1
    dimensions, given by its density; expectations are integrals of it.

    The built-in densities evaluate scipy's chi-square and F densities
    from ``scipy.special`` in scipy's order of operations, bit for bit.
    """

    kind: str
    p: int
    density: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        _dimension(self.p, "radial law")
        total = self.expect(np.ones_like)
        if not abs(total - 1.0) <= 1e-8:  # so that NaN fails too
            raise PreconditionError(f"radial density integrates to {total!r}, not 1")

    @classmethod
    def chi_square(cls, p: int) -> "RadialLaw":
        """Radial law of a Gaussian vector: chi-square with p df."""
        from scipy.special import gammaln, xlogy
        # scipy's chi2(p).pdf, operation for operation
        a, b, c = p / 2. - 1, gammaln(p / 2.), (np.log(2) * p) / 2.

        def density(r):
            r = np.asarray(r, dtype=float)
            return np.exp(xlogy(a, r) - r / 2. - b - c)

        return cls("chi-square-p", p, density)

    @classmethod
    def scaled_f(cls, p: int, nu: float) -> "RadialLaw":
        """Radial law of an elliptical t: R/p follows F(p, nu)."""
        from scipy.special import betaln, xlogy
        n, m = 1.0 * p, 1.0 * _positive(nu, "t degrees of freedom")
        # scipy's f(p, nu).pdf(r / p) / p, operation for operation
        a, b = m / 2 * np.log(m) + n / 2 * np.log(n), n / 2 - 1
        c, d = (n + m) / 2, betaln(n / 2, m / 2)

        def density(r):
            x = np.asarray(r, dtype=float) / p
            return np.exp(a + xlogy(b, x) - (c * np.log(m + n * x) + d)) / p

        return cls(f"scaled-f-t:{nu:g}", p, density)

    @classmethod
    def from_density(cls, density, p: int) -> "RadialLaw":
        return cls("user-density", p, density)

    def expect(self, fn) -> float:
        """E[fn(R)] by adaptive quadrature over s in (0, 1), r = s/(1-s)."""
        from scipy.integrate import quad
        def integrand(s):
            r = np.asarray([s / (1.0 - s)])
            return np.asarray(fn(r), dtype=float)[0] * self.density(r)[0] / (1.0 - s) ** 2

        val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-11, limit=400)
        return val


def radial_for_family(family: str, p: int) -> RadialLaw:
    """Radial law of a named elliptical family (``gaussian`` or ``t:NU``)."""
    nu = _family_nu(family)
    return RadialLaw.chi_square(p) if nu is None else RadialLaw.scaled_f(p, nu)


@dataclass
class FitResult:
    """Location/scatter estimate with convergence diagnostics."""

    mu: np.ndarray
    scatter: np.ndarray
    iterations: int
    converged: bool
    residual: float


def _validate_data(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"data must be an n x p matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0] + 1
        raise PreconditionError(f"data has a non-finite value at row {i}, column {j}")
    n, p = X.shape
    if n < p + 1:
        raise SampleSizeError(f"estimation requires at least p+1={p + 1} data points, got {n}")
    if np.linalg.matrix_rank(X - X.mean(axis=0)) < p:
        raise DegenerateDataError("data is not in general position (rank deficient)")
    return X


# rows per tile of the fixed-point map, over all its slices: they stay in cache
_BLOCK = 8192


def _groups(R: int, n: int) -> list:
    """The groups of slices of an (R, n, p) stack that the fixed-point map
    takes together: ``_BLOCK // n`` slices while n <= ``_BLOCK``, else one."""
    g = max(1, _BLOCK // min(n, _BLOCK))
    return [slice(t, t + g) for t in range(0, R, g)]


def _reweight(X, mu, S, spec, center=None, live=None, step=False, errors=None):
    """The fixed-point map at (mu, S), per slice of the stacks X[live]
    (R, n, p), mu (R, p) and S (R, p, p), X[live] never copied whole: the
    u1-weighted mean and the u2-weighted scatter about ``center``, by
    default that new mean.

    A tile is a group of slices (:func:`_groups`) times a block of
    ``_BLOCK`` rows.  Each group passes over its blocks for the radii,
    then for both weights and the weighted row sums, then for the weighted
    scatter about the new mean.  So temporaries are bounded by the tile,
    apart from a few numbers per row, and blocks depend on n alone: a
    slice keeps its stack-of-one bits.

    With ``step``, each slice is mapped at (mu, S / s) instead, and the
    factors (s, omega, omega1) of :func:`_factors`, from its radii at
    (mu, S), are returned as a third array (3, R).  ``errors`` maps the data
    set of a slice without a Cholesky factor, mapped at I, to its LinAlgError.
    """
    n, p = X.shape[1:]
    live = np.arange(len(X)) if live is None else live
    blocks = [slice(a, a + _BLOCK) for a in range(0, n, _BLOCK)]
    # inverting the p x p factor once beats a general solve for n columns
    L, lost = _per_slice(np.linalg.cholesky, 0.5 * (S + S.mT))
    ({} if errors is None else errors).update((live[i], exc) for i, exc in lost.items())
    L_inv = np.linalg.inv(L)
    mu_new, scatter, factors = np.empty_like(mu), np.empty_like(S), np.ones((3, len(live)))
    for G in _groups(len(live), n):
        # a run of consecutive slices is a view, any other tile a copy
        t = live[G]
        Xt = X[t[0]:t[-1] + 1] if t[-1] - t[0] < len(t) else X[t]
        radii = np.empty((len(t), n))
        for b in blocks:
            Y = L_inv[G] @ (Xt[:, b] - mu[G, None, :]).mT
            np.einsum("rij,rij->rj", Y, Y, out=radii[:, b])
        if step:
            # the radii at S/s are s r
            factors[:, G] = _factors(radii, spec, p)
            radii *= factors[0, G, None]
        w2, sums, totals = [], [], []
        for b in blocks:
            r = radii[:, b]
            w1 = spec.u1(r)
            w2.append(spec.u2(r))
            # with the step the mean is mu plus that of the rows centred at mu,
            # so that its rounding does not grow with the offset of the data
            Xb = Xt[:, b] - mu[G, None, :] if step else Xt[:, b]
            # einsum adds the rows in order, as numpy's strided sum does; at
            # p = 1 numpy sums pairwise, so the mean there keeps that sum
            sums.append(np.einsum("rn,rni->ri", w1, Xb) if p > 1
                        else (w1[..., None] * Xb).sum(axis=1))
            totals.append(w1.sum(axis=1))
        mu_new[G] = reduce(add, sums) / reduce(add, totals)[:, None] + (mu[G] if step else 0.0)
        c = (mu_new if center is None else center)[G, None, :]
        parts = []
        for b, w in zip(blocks, w2):
            Xc = Xt[:, b] - c
            parts.append((w[..., None] * Xc).mT @ Xc)
        scatter[G] = reduce(add, parts) / n
    return (mu_new, scatter, factors) if step else (mu_new, scatter)


def _factors(radii, spec: EstimatorSpec, p: int) -> np.ndarray:
    """Per row of ``radii`` (k, n), the squared radii r_i of one slice at
    (mu, S), the factors (s, omega, omega1) of the solver's step from u1
    and u2 alone, with derivatives along the scale ray by central
    differences (r -> (1 +- 1e-4) r): p gamma2 = max(0, mean r_i phi2'(r_i)),
    phi2(v) = v u2(v), and d1 = mean r_i u1'(r_i).  s = 1 - (mean
    phi2(r_i) - p) / (p gamma2), one Newton step on the trace identity
    mean phi2(s r_i) = p, is kept in [1/2, 2] (wider steps on a flat phi2,
    as Huber's at small n, led fits onto a data point), 1 where 0/0.
    omega = (p + 2) / (p + 2 gamma2) and omega1 = 1 / (1 + 2 d1 / (p mean
    u1(r_i))), the Newton factors of the shape and location blocks of the
    map at an elliptical fixed point, are 1 where not finite or not > 0.
    Each row runs on its own numbers, independent of the other rows."""
    n, h = radii.shape[1], 1e-4
    at = ((1.0 + h) * radii, (1.0 - h) * radii, radii)
    u2 = [spec.u2(v) for v in at]
    u1 = u2 if spec.u1 is spec.u2 else [spec.u1(v) for v in at]  # t weights: u1 = u2
    # sums, not means: n cancels from omega1, and the rest divide by it once
    g2 = np.maximum((at[0] * u2[0] - at[1] * u2[1]).sum(axis=1) / (2.0 * h * n), 0.0)
    d1 = (u1[0] - u1[1]).sum(axis=1) / (2.0 * h)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.clip(1.0 - ((radii * u2[2]).sum(axis=1) / n - p) / g2, 0.5, 2.0)
        w = np.stack([(p + 2.0) / (p + 2.0 * g2 / p),
                      1.0 / (1.0 + 2.0 * d1 / (p * u1[2].sum(axis=1)))])
    return np.stack([np.where(np.isnan(s), 1.0, s),
                     *np.where(np.isfinite(w) & (w > 0.0), w, 1.0)])


def _distance(mu, S, mu_new, S_new) -> np.ndarray:
    """The solver's metric per slice, d = sqrt(diag S): the max of |S_new - S|_ij
    / (d_i d_j) and |mu_new - mu|_j / max(d_j, |mu_j|), above rounding at any offset."""
    d = np.sqrt(np.diagonal(S, axis1=1, axis2=2))
    return np.maximum(np.max(np.abs(mu_new - mu) / np.maximum(d, np.abs(mu)), axis=1),
                      np.max(np.abs(S_new - S) / (d[:, :, None] * d[:, None, :]), axis=(1, 2)))


def _residual(X, mu, S, spec, index: Optional[GraphIndex] = None, live=None, errors=None):
    """The :func:`_distance` of (mu, S) to the map at it, per slice of X[live];
    under ``index`` on edges and the diagonal, and the absent-edge test of S^-1.
    ``errors`` collects the slices without a factor (:func:`_reweight`)."""
    mu_fix, W = _reweight(X, mu, S, spec, center=mu, live=live, errors=errors)
    if index is None:
        return _distance(mu, S, mu_fix, W)
    return np.maximum(_distance(mu, S, mu_fix, np.where(index.k_mask, W, S)),
                      _off_pattern(np.linalg.inv(S), S, index.d_mask))


def _solve(X, spec: EstimatorSpec, tol: float, max_iter: int,
           index: Optional[GraphIndex] = None, start: Optional[list] = None) -> list:
    """Relaxed fixed-point iteration of the M-estimating equations on each
    slice of an (R, n, p) stack of validated data sets, constrained to the
    graph of ``index`` when that graph has an absent edge.

    A plain fit starts at the sample mean and covariance.  A graphical fit
    starts at the slice's plug-in estimate (:func:`_plug_in`), one outcome
    per slice in ``start`` or else computed here; a slice whose plug-in
    failed fails with the plug-in's error, before any map evaluation.  Each
    evaluation maps (mu, S) at (mu, S/s) to F and moves to mu + omega1
    (F_mu - mu) and S/s + omega (F_S - S/s) (:func:`_factors`), or to F for
    Gaussian weights and where that S has no Cholesky factor: so a solve
    whose every relaxation is rejected is the plain iteration with the
    scale step, bit for bit.  Under a graph the scatter is then completed
    (:func:`egm.covsel._newton`) from the previous completion, the
    plug-in's at first, to an inner tolerance that follows the outer
    progress down to tol/100.  An iterate converges once its change,
    divided by the larger relaxation factor so that it measures the plain
    map's step, and then its residual are within ``tol``, both by
    :func:`_distance`; from a plug-in start, whose first steps are already
    small, the change must be within ``tol``/10.  So a fit of a X + b is
    that of X mapped, in as many evaluations.  A slice leaves the stack once
    it converges, runs out of budget (``max_iter`` map evaluations, or the
    steps of a completion) or loses definiteness, in the map or a
    completion, so it takes exactly the evaluations it would take alone.
    Returns one FitResult or ConvergenceError per slice.
    """
    _check_budget(tol, max_iter, "iteration")
    R, n, p = X.shape
    what = "M-estimation" if index is None else "graphical M-estimation"
    if index is not None and index.q == 0:
        index = None  # a complete graph constrains nothing
    out, it = [None] * R, 0
    if index is None:
        live, stop = np.arange(R), tol  # the data set of each slice of the stacks
        mu, S = X.mean(axis=1), np.empty((R, p, p))
        for G in _groups(R, n):
            Xc = X[G] - mu[G, None, :]
            S[G] = Xc.mT @ Xc / n
    else:
        start = _plug_in(X, spec, tol, max_iter, index.k_mask) if start is None else start
        out = [f if isinstance(f, Exception) else None for f in start]
        live, stop = np.flatnonzero([f is None for f in out]), tol / 10
        mu = np.array([start[i].mu for i in live]).reshape(-1, p)
        # the plug-in's completion starts the first inner completion
        S = np.array([start[i].scatter for i in live]).reshape(-1, p, p)
    lost = {}  # data set: the LinAlgError of a scatter without a factor

    def fail(errors):
        # a data set's first failure is its outcome, named by its evaluation: a lost
        # factor, or an inner completion out of steps, whose residual it keeps
        for r, exc in errors.items():
            if out[r] is None:
                how = ("ran out of completion steps" if isinstance(exc, ConvergenceError)
                       else "lost positive definiteness")
                out[r] = ConvergenceError(f"{what} {how} at iteration {it}: {exc}",
                                          residual=getattr(exc, "residual", None))
                out[r].__cause__ = exc

    change = np.full(len(live), np.inf)
    step = spec.name != "gaussian"  # constant weights: F is the fixed point
    while True:
        # the slices with an outcome leave; the data stack is never copied
        keep = np.array([out[r] is None for r in live], dtype=bool)
        if not keep.all():
            live, mu, S, change = (a[keep] for a in (live, mu, S, change))
        if not live.size or it == max_iter:
            break
        it += 1
        if step:
            mu_F, S_F, (s, omega, omega1) = _reweight(X, mu, S, spec, live=live, step=True,
                                                      errors=lost)
            S_s = S / s[:, None, None]
            S_new = S_s + omega[:, None, None] * (S_F - S_s)
            ok = _has_cholesky(S_new)
            mu_new = np.where(ok[:, None], mu + omega1[:, None] * (mu_F - mu), mu_F)
            S_new = np.where(ok[:, None, None], S_new, S_F)
            factor = np.where(ok, np.maximum(omega, omega1), 1.0)
        else:
            (mu_new, S_new), factor = _reweight(X, mu, S, spec, live=live, errors=lost), 1.0
        fail(lost)
        if index is not None:
            inner_tol = np.minimum(np.maximum(1e-2 * change, 1e-2 * tol), 1e-2)
            S_new, _, failed = _newton(S_new, index.k_mask, inner_tol, start=S)
            fail({live[i]: exc for i, exc in failed.items()})
        change = _distance(mu, S, mu_new, S_new) / factor
        mu, S = mu_new, S_new
        conv = [i for i in np.flatnonzero(change <= stop) if out[live[i]] is None]
        if conv:
            c = slice(None) if len(conv) == len(live) else conv
            res = _residual(X, mu[c], S[c], spec, index, live[c], lost)
            fail(lost)
            for i, r in zip(conv, res):
                if r <= tol and out[live[i]] is None:
                    out[live[i]] = FitResult(mu[i].copy(), S[i].copy(), it, True, float(r))
    if live.size:
        res = _residual(X, mu, S, spec, index, live, lost)
        fail(lost)
        for r, x in zip(live, res):
            if out[r] is None:
                out[r] = ConvergenceError(f"{what} did not converge in {max_iter} iterations "
                                          f"(residual {x:.3e})", residual=float(x))
    return out


# the completion tolerance of a plug-in estimate that starts a graphical fit
_COMPLETION_TOL = 1e-10

# the estimators' default budget of map evaluations
_MAX_ITER = 500


def _plug_in(X, spec: EstimatorSpec, tol: float, max_iter: int, k_mask) -> list:
    """The plug-in estimate on each slice of an (R, n, p) stack of validated
    data sets: the unconstrained fit, its scatter completed under
    ``k_mask`` to ``_COMPLETION_TOL``.  One FitResult, or the
    ConvergenceError of the fit or of the completion that failed, per
    slice."""
    out = _solve(X, spec, tol, max_iter)
    ok = [i for i, f in enumerate(out) if isinstance(f, FitResult)]
    if ok:
        completed = _complete(np.array([out[i].scatter for i in ok]), k_mask, _COMPLETION_TOL)
        for i, c in zip(ok, completed):
            out[i] = c if isinstance(c, ConvergenceError) else replace(out[i], scatter=c.matrix)
    return out


def _one(X, spec: EstimatorSpec, index: Optional[GraphIndex] = None) -> np.ndarray:
    """X after the public estimators' checks, as a stack of one."""
    X = _validate_data(X)
    if index is not None and X.shape[1] != index.p:
        raise DimensionError(f"data has {X.shape[1]} columns but the graph has p={index.p}")
    _check_spec(spec, X.shape[1])
    return X[None]


def m_estimate(X, spec: EstimatorSpec, tol: float = 1e-9,
               max_iter: int = _MAX_ITER) -> FitResult:
    """Solve the simultaneous location/scatter M-estimating equations.

    Parameters
    ----------
    X : (n, p) array_like
        Data, n >= p+1 finite rows in general position.
    spec : EstimatorSpec
        Weight functions.
    tol : float
        Bound on both the parameter change and the equation residual, in
        the estimate's units: the fit of a X + b is the fit of X mapped.
    max_iter : int
        Budget of fixed-point map evaluations.

    Notes
    -----
    Relaxed fixed-point iteration: the map takes the reweighted mean and
    the reweighted scatter at the current radii.  Each evaluation first
    rescales S -> S/s by one Newton step on the trace identity
    mean phi2(s r_i) = p that holds at every fixed point, which removes the
    map's slowest, near-neutral scale mode.  It then over-relaxes the
    map's output by the Newton factors of the scatter and location blocks
    at an elliptical fixed point, unless the relaxed scatter loses
    positive definiteness; the change test divides by the larger factor,
    so it measures the plain map's step.  Each evaluation passes over
    the data in tiles of at most 8192 rows, counted over the data sets of
    a stacked call (a study stacks up to 128 replicates), so temporaries
    are bounded by the tile, neither by n nor by the stack.  Gaussian
    weights converge at the first evaluation to the sample mean and the
    1/n-denominator sample covariance.  An exhausted budget, or an iterate
    that loses positive definiteness, raises ConvergenceError.
    """
    fit, = _results(_solve(_one(X, spec), spec, tol, max_iter))
    return fit


def graphical_m_estimate(X, index: GraphIndex, spec: EstimatorSpec,
                         tol: float = 1e-9, max_iter: int = _MAX_ITER) -> FitResult:
    """Solve the graph-constrained M-estimating equations.

    The relaxed fixed-point iteration of :func:`m_estimate` with every
    relaxed scatter replaced by its graph-constrained completion, and the
    same scale step at each evaluation: the identity mean phi2(r_i) = p
    holds at a constrained fixed point too, since S and the reweighted
    scatter agree on the edges and the diagonal, where alone S^-1 is
    non-zero.

    The iteration starts at :func:`plug_in_estimate` (same ``tol`` and
    ``max_iter``), which lies O_p(1/n) from the graphical fixed point, and
    stops once a step changes the estimate by at most ``tol``/10 and the
    residual, with S^-1 on the absent edges at unit diagonal, is at most
    ``tol``.  Its completion warm-starts the first inner completion, and
    each later one starts from the previous, so most evaluations need a
    few Newton steps.  Gaussian weights take a single evaluation: their
    answer is the completion of the sample covariance.
    ``iterations`` and ``max_iter`` count the map evaluations of the
    graph-constrained iteration; the plug-in's own are not included.  If
    the plug-in fails, the fit fails with the plug-in's error: there is no
    other start.  A complete graph gives exactly the :func:`m_estimate`
    result.
    """
    fit, = _results(_solve(_one(X, spec, index), spec, tol, max_iter, index))
    return fit


def plug_in_estimate(X, index: GraphIndex, spec: EstimatorSpec,
                     tol: float = 1e-9, max_iter: int = _MAX_ITER) -> FitResult:
    """Unconstrained M-estimate (:func:`m_estimate`, same ``tol`` and
    ``max_iter``), its scatter completed under ``index`` to 1e-10."""
    fit, = _results(_plug_in(_one(X, spec, index), spec, tol, max_iter, index.k_mask))
    return fit


def _plug_in_and_graphical(X, index: GraphIndex, spec: EstimatorSpec, tol: float,
                           max_iter: int = _MAX_ITER) -> list:
    """:func:`plug_in_estimate` and :func:`graphical_m_estimate` on each
    slice of an (R, n, p) stack of validated data sets, sharing one
    unconstrained fit: the graphical fits start at the plug-ins.  Per
    slice the pair of FitResults, or the error of the first of the two to
    fail (a failed plug-in is also the graphical fit's error)."""
    plugs = _plug_in(X, spec, tol, max_iter, index.k_mask)
    fits = _solve(X, spec, tol, max_iter, index, plugs)
    return [fit if isinstance(fit, Exception) else (plug, fit) for plug, fit in zip(plugs, fits)]


def sample_cov_scalars(kappa: float, p: Optional[int] = None) -> AsymptoticScalars:
    """Scalars of the sample covariance: sigma1 = 1 + kappa/3, sigma2 = kappa/3.

    ``kappa`` is the excess kurtosis of any single component; the
    Gaussian case kappa = 0 gives (1, 0, 1).
    """
    s = AsymptoticScalars(1.0 + kappa / 3.0, kappa / 3.0, 1.0)
    if p is not None:
        s.check_bounds(p)
    return s


def mle_scalars(radial: RadialLaw, g_logderiv, p: int) -> AsymptoticScalars:
    """Scalars of the elliptical maximum likelihood estimator.

    ``g_logderiv`` is (log g)'(y) for the density generator g; the MLE
    weight is u(y) = -2 (log g)'(y) and

        sigma1 = p(p+2) / E[R^2 u^2(R)],
        sigma2 = -2 sigma1 (1 - sigma1) / {2 + p(1 - sigma1)}.
    """
    def integrand(r):
        r = np.asarray(r, dtype=float)
        u = -2.0 * np.asarray(g_logderiv(r), dtype=float)
        return (r * u) ** 2

    return _mle(p * (p + 2.0) / radial.expect(integrand), p)


def _mle(sigma1: float, p: int) -> AsymptoticScalars:
    """Checked MLE scalars from sigma1: sigma2 by the formula above, eta = 1."""
    sigma2 = -2.0 * sigma1 * (1.0 - sigma1) / (2.0 + p * (1.0 - sigma1))
    s = AsymptoticScalars(sigma1, sigma2, 1.0)
    s.check_bounds(p)
    return s


def m_scalars(spec: EstimatorSpec, radial: RadialLaw, p: int) -> AsymptoticScalars:
    """Scalars of a monotone M-estimator at the given radial law.

    The consistency scale is located by a bracketing root search on
    E[phi2(c R)] = p; with gamma1 = E[phi2^2(c R)]/{p(p+2)} and
    gamma2 = E[c R phi2'(c R)]/p,

        sigma1 = (p+2)^2 gamma1 / (2 gamma2 + p)^2,
        sigma2 = {(gamma1-1) - 2 gamma1 (gamma2-1)(p + (p+4) gamma2)
                  / (2 gamma2 + p)^2} / gamma2^2.

    The gamma2^-2 factor in sigma2 is fixed by the maximum-likelihood
    special case, where this routine and :func:`mle_scalars` must
    coincide; Monte Carlo covariances of the estimator confirm it.

    The stored eta is the factor with (estimator limit) = eta * (shape),
    i.e. the reciprocal of the root c.
    """
    from scipy.optimize import brentq
    spec.check_monotone()
    if spec.phi2_prime is not None:
        dphi2 = spec.phi2_prime
    else:
        def dphi2(s):
            s = np.asarray(s, dtype=float)
            h = 1e-6 * np.maximum(1.0, s)
            return (spec.phi2(s + h) - spec.phi2(s - h)) / (2.0 * h)

    def gap(c):
        return radial.expect(lambda r: spec.phi2(c * r)) - p

    def bracket(step, sign, side):
        # the first of 1, step, ..., step^60 where sign * gap < 0 fails
        c = 1.0
        for _ in range(61):
            if not sign * gap(c) < 0.0:
                return c
            c *= step
        raise PreconditionError(f"no consistency root: E[phi2(c R)] stays {side} p "
                                f"(spec {spec.name!r} cannot match this radial law)")

    hi = bracket(2.0, 1.0, "below")
    c = brentq(gap, bracket(0.5, -1.0, "above"), hi, xtol=1e-13, rtol=8.9e-16)

    gamma1 = radial.expect(lambda r: spec.phi2(c * r) ** 2) / (p * (p + 2.0))
    gamma2 = radial.expect(lambda r: c * r * dphi2(c * r)) / p
    sigma1 = (p + 2.0) ** 2 * gamma1 / (2.0 * gamma2 + p) ** 2
    sigma2 = ((gamma1 - 1.0)
              - 2.0 * gamma1 * (gamma2 - 1.0) * (p + (p + 4.0) * gamma2)
              / (2.0 * gamma2 + p) ** 2) / gamma2 ** 2
    s = AsymptoticScalars(sigma1, sigma2, 1.0 / c)
    s.check_bounds(p)
    return s


def scalars_for(spec: EstimatorSpec, family: str, p: int) -> AsymptoticScalars:
    """Scalars matching an estimator spec to a named data family.

    Gaussian (constant) weights are the sample covariance, handled via
    its kurtosis formula.  The t:NU spec at the t:NU family is the MLE, with
    sigma1 = (p+NU+2)/(p+NU) (Tyler 1982, Biometrika 69) and eta = 1.
    Everything else goes through the M-estimator scalars at the family's
    radial law.
    """
    nu = _family_nu(family)
    if spec.name == "gaussian":
        if nu is not None and nu <= 4:
            raise PreconditionError(
                f"sample covariance needs finite fourth moments (t with nu > 4), got nu={nu}")
        return sample_cov_scalars(0.0 if nu is None else 6.0 / (nu - 4.0), p)
    # the MLE weight u(s) = (p+NU)/(NU+s) of this dimension, not another's
    if (spec.name.startswith("t:") and nu is not None and spec.params.get("nu") == nu
            and spec.params.get("p") == p):
        return _mle((p + nu + 2.0) / (p + nu), p)
    return m_scalars(spec, radial_for_family(family, p), p)
