"""Multivariate M-estimators of location and scatter.

Provides one fixed-point solver of the simultaneous location/scatter
equations, unconstrained or graph-constrained, the plug-in estimator, and the
asymptotic scalars (sigma1, sigma2, eta) of the three classical cases:
sample covariance, elliptical maximum likelihood, and general monotone
M-estimators.

Built-in weight families, addressable by string:

* ``gaussian``      constant weights; reproduces mean / covariance,
* ``t:NU``          elliptical-t maximum-likelihood weights,
* ``huber:K``       Huber weights, scatter part rescaled to be
                    consistent at the Gaussian distribution.

Tyler's distribution-free estimator (u2(s) = p/s) is deliberately not
offered for graphical fitting: its phi2 is constant, which sits on the
boundary of the monotonicity assumptions, and its scale indeterminacy
does not mix well with the constrained estimating equations.

Radial laws are densities integrated by adaptive quadrature; distribution
functions come from ``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.integrate
import scipy.optimize
from scipy.special import betaln, chdtr, chdtrc, gammaln, xlogy

from .covsel import AsymptoticScalars, _complete, _ips, constrain_scatter
from .errors import (
    ConvergenceError,
    DefinitenessError,
    DegenerateDataError,
    DimensionError,
    PreconditionError,
    SampleSizeError,
    _results,
)
from .graphs import GraphIndex

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

    def check_monotone(self, upper: float = 100.0, n: int = 1000,
                       slack: float = 1e-10) -> None:
        """Verify u1, u2 non-increasing and phi1, phi2 non-decreasing.

        Checked on a grid of ``n`` points over (0, upper]; raises
        PreconditionError on violation, a NaN value included.
        """
        grid = np.linspace(upper / n, upper, n)
        for label, f, sign in (("u1", self.u1, -1), ("u2", self.u2, -1),
                               ("phi1", self.phi1, 1), ("phi2", self.phi2, 1)):
            d = sign * np.diff(np.asarray(f(grid), dtype=float))
            if not np.all(d >= -slack):
                kind = "non-increasing" if sign < 0 else "non-decreasing"
                raise PreconditionError(f"{label} of spec {self.name!r} is not {kind}")


def _positive(x: float, what: str) -> float:
    """``x`` if it is finite and > 0, else PreconditionError naming ``what``."""
    if not 0.0 < x < np.inf:
        raise PreconditionError(f"{what} must be finite and > 0, got {x}")
    return x


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
    finite and > 0.
    The Huber scatter weight is rescaled by the consistency constant
    c = p / E[min(R, k^2)] = p / {p F_{p+2}(k^2) + k^2 (1 - F_p(k^2))} under
    the chi-square(p) radial law, with F_d the chi-square(d) CDF.
    """
    text = text.strip()
    if text == "gaussian":
        one = lambda s: np.ones_like(np.asarray(s, dtype=float))
        spec = EstimatorSpec("gaussian", one, one, {},
                             phi2_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)))
    elif text.startswith("t:"):
        nu = _parameter(text, "t:", "t degrees of freedom")
        a = p + nu

        def u(s, nu=nu, a=a):
            return a / (nu + np.asarray(s, dtype=float))

        def dphi2(s, nu=nu, a=a):
            return a * nu / (nu + np.asarray(s, dtype=float)) ** 2

        spec = EstimatorSpec(text, u, u, {"nu": nu}, phi2_prime=dphi2)
    elif text.startswith("huber:"):
        k = _parameter(text, "huber:", "huber threshold")
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

        spec = EstimatorSpec(text, u1, u2, {"k": k, "c": c}, phi2_prime=dphi2)
    else:
        raise PreconditionError(f"unknown estimator spec {text!r}")
    spec.check_monotone()
    return spec


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
        if not self.p >= 1:
            raise PreconditionError(f"radial law needs dimension p >= 1, got {self.p}")
        total = self.expect(np.ones_like)
        if not abs(total - 1.0) <= 1e-8:  # so that NaN fails too
            raise PreconditionError(f"radial density integrates to {total!r}, not 1")

    @classmethod
    def chi_square(cls, p: int) -> "RadialLaw":
        """Radial law of a Gaussian vector: chi-square with p df."""
        # scipy's chi2(p).pdf, operation for operation
        a, b, c = p / 2. - 1, gammaln(p / 2.), (np.log(2) * p) / 2.

        def density(r):
            r = np.asarray(r, dtype=float)
            return np.exp(xlogy(a, r) - r / 2. - b - c)

        return cls("chi-square-p", p, density)

    @classmethod
    def scaled_f(cls, p: int, nu: float) -> "RadialLaw":
        """Radial law of an elliptical t: R/p follows F(p, nu)."""
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
        def integrand(s):
            r = np.asarray([s / (1.0 - s)])
            return np.asarray(fn(r), dtype=float)[0] * self.density(r)[0] / (1.0 - s) ** 2

        val, _ = scipy.integrate.quad(integrand, 0.0, 1.0,
                                      epsabs=1e-12, epsrel=1e-11, limit=400)
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
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        i, j = bad[0] + 1
        raise PreconditionError(f"data has a non-finite value at row {i}, column {j}")
    n, p = X.shape
    if n < p + 1:
        raise SampleSizeError(f"estimation requires at least p+1={p + 1} data points, got {n}")
    if np.linalg.matrix_rank(X - X.mean(axis=0)) < p:
        raise DegenerateDataError("data is not in general position (rank deficient)")
    return X


def _radii(X, mu, S) -> np.ndarray:
    Xc = X - mu[:, None, :]
    # inverting the p x p factor once beats a general solve for n columns
    Y = np.linalg.inv(np.linalg.cholesky(0.5 * (S + S.mT))) @ Xc.mT
    return np.einsum("rij,rij->rj", Y, Y)


def _reweight(X, mu, S, spec, center=None):
    """The fixed-point map at (mu, S), per slice of the stacks X (R, n, p),
    mu (R, p) and S (R, p, p): the u1-weighted mean and the u2-weighted
    scatter about ``center``, by default that new mean."""
    R = _radii(X, mu, S)
    w1 = spec.u1(R)
    w2 = spec.u2(R)
    mu_new = (w1[..., None] * X).sum(axis=1) / w1.sum(axis=1)[:, None]
    Xc = X - (mu_new if center is None else center)[:, None, :]
    return mu_new, (w2[..., None] * Xc).mT @ Xc / X.shape[1]


def _residual(X, mu, S, spec, index: Optional[GraphIndex] = None) -> np.ndarray:
    """Max-abs residual of the estimating equations, per slice; with
    ``index`` the scatter equation holds on edges and the diagonal only and
    the inverse must vanish on the absent edges."""
    mu_fix, W = _reweight(X, mu, S, spec, center=mu)
    scale = np.maximum(1.0, np.max(np.abs(S), axis=(1, 2)))
    gap = np.abs(S - W).reshape(len(S), -1) if index is None else np.abs((S - W)[:, index.k_mask])
    res = np.maximum(np.max(np.abs(mu_fix - mu), axis=1), np.max(gap, axis=1) / scale)
    if index is not None:
        res = np.maximum(res, np.max(np.abs(np.linalg.inv(S)[:, index.d_mask]), axis=1))
    return res


def _extrapolate(theta0, theta1, theta2):
    """SQUAREM step (Varadhan & Roland 2008, scheme SqS3) from three
    successive fixed-point iterates (mu, S), per slice of the stacks: with
    r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0, the point
    theta0 - 2 a r + a^2 v at a = -max(|r|/|v|, 1).  A slice whose
    extrapolated S has no finite Cholesky factor takes theta2 itself."""
    (m0, S0), (m1, S1), (m2, S2) = theta0, theta1, theta2
    r, v = (m1 - m0, S1 - S0), (m2 - 2.0 * m1 + m0, S2 - 2.0 * S1 + S0)
    rr, vv = ((x * x).sum(axis=1) + (y * y).sum(axis=(1, 2)) for x, y in (r, v))
    a = -np.sqrt(np.maximum(1.0, np.divide(rr, vv, out=np.ones_like(rr), where=vv > 0)))
    mu = m0 - 2.0 * a[:, None] * r[0] + (a * a)[:, None] * v[0]
    S = S0 - 2.0 * a[:, None, None] * r[1] + (a * a)[:, None, None] * v[1]
    ok = _has_cholesky(S)
    return np.where(ok[:, None], mu, m2), np.where(ok[:, None, None], S, S2)


def _has_cholesky(S) -> np.ndarray:
    """Per slice of a stack: does it have a finite Cholesky factor?"""
    try:
        return np.isfinite(np.linalg.cholesky(S)).all(axis=(1, 2))
    except np.linalg.LinAlgError:  # raised for the whole stack, so split it
        return np.array([len(S) > 1 and _has_cholesky(s[None])[0] for s in S])


def _solve(X, spec: EstimatorSpec, tol: float, max_iter: int,
           index: Optional[GraphIndex] = None) -> list:
    """Fixed-point iteration of the M-estimating equations, accelerated by
    SQUAREM, on each slice of an (R, n, p) stack of validated data sets,
    constrained to the graph of ``index`` when that graph has an absent edge.

    The map reweights location and scatter at its input; under a graph it
    then completes the weighted scatter by IPS, started from the previous
    completion, to an inner tolerance that follows the outer progress down
    to one hundredth of ``tol``.  After every second map evaluation the
    iterate is extrapolated (:func:`_extrapolate`).  Each map output is
    tested for convergence, its change from the previous output and then
    its residual, so an estimate is always a map output.  A slice leaves
    the stack once it converges or runs out of budget (``max_iter`` map
    evaluations, or the sweeps of a completion), so it takes exactly the
    evaluations it would take alone.  Returns one FitResult, or the
    ConvergenceError of an exhausted budget, per slice.  Any other failure
    raises for the whole stack; a lost definiteness raises ConvergenceError
    naming the evaluation.
    """
    R, n, p = X.shape
    what = "M-estimation" if index is None else "graphical M-estimation"
    if index is not None and index.q == 0:
        index = None  # a complete graph constrains nothing
    out, it = [None] * R, 0
    try:
        mu = X.mean(axis=1)
        Xc = X - mu[:, None, :]
        S = Xc.mT @ Xc / n
        K, W, change = None, None, np.full(R, np.inf)
        if index is not None:
            fits = _complete(S, index, 1e-2 * tol)
            out = [f if isinstance(f, ConvergenceError) else None for f in fits]
            S = np.array([f.matrix if o is None else s for s, f, o in zip(S, fits, out)])
        live = np.arange(R)  # the data set of each slice of the stacks
        path = []  # the inputs (mu, S) of this cycle's map evaluations
        while True:
            # the slices with an outcome leave; the stacks are copied only then
            keep = np.array([out[r] is None for r in live], dtype=bool)
            if not keep.all():
                live, X, mu, S, change = live[keep], X[keep], mu[keep], S[keep], change[keep]
                K, W = (None, None) if K is None else (K[keep], W[keep])
                path = [(m[keep], s[keep]) for m, s in path]
            if not live.size or it == max_iter:
                break
            path = [_extrapolate(*path, (mu, S))] if len(path) == 2 else path + [(mu, S)]
            it += 1
            mu_new, S_new = _reweight(X, *path[-1], spec)
            if index is not None:
                inner_tol = np.minimum(np.maximum(1e-2 * change, 1e-2 * tol), 1e-2)
                # warm start from the last completion: an extrapolated S is no K^-1
                K, W, _, failed = _ips(S_new, index, inner_tol, start=None if K is None else (K, W))
                S_new = W
                for i, exc in failed.items():
                    out[live[i]] = exc
            scale = np.maximum(1.0, np.max(np.abs(S), axis=(1, 2)))
            change = np.maximum(np.max(np.abs(mu_new - mu), axis=1),
                                np.max(np.abs(S_new - S), axis=(1, 2)) / scale)
            mu, S = mu_new, S_new
            conv = [i for i in np.flatnonzero(change <= tol) if out[live[i]] is None]
            if conv:
                # the data are copied only when some slices have not converged
                sub = (X, mu, S) if len(conv) == len(X) else (X[conv], mu[conv], S[conv])
                for i, r in zip(conv, _residual(*sub, spec, index)):
                    if r <= tol:
                        out[live[i]] = FitResult(mu[i].copy(), S[i].copy(), it, True, float(r))
        if live.size:
            for r, res in zip(live, _residual(X, mu, S, spec, index)):
                out[r] = ConvergenceError(f"{what} did not converge in {max_iter} iterations "
                                          f"(residual {res:.3e})", residual=float(res))
    except (np.linalg.LinAlgError, DefinitenessError) as exc:
        raise ConvergenceError(
            f"{what} lost positive definiteness at iteration {it}: {exc}") from exc
    return out


def _fit(X, spec: EstimatorSpec, tol: float, max_iter: int,
         index: Optional[GraphIndex] = None) -> FitResult:
    """One fit: the public estimators' checks, then :func:`_solve` on a
    stack of one."""
    X = _validate_data(X)
    if index is not None and X.shape[1] != index.p:
        raise DimensionError(f"data has {X.shape[1]} columns but the graph has p={index.p}")
    fit, = _results(_solve(X[None], spec, tol, max_iter, index))
    return fit


def m_estimate(X, spec: EstimatorSpec, tol: float = 1e-9,
               max_iter: int = 500) -> FitResult:
    """Solve the simultaneous location/scatter M-estimating equations.

    Parameters
    ----------
    X : (n, p) array_like
        Data, n >= p+1 finite rows in general position.
    spec : EstimatorSpec
        Weight functions.
    tol : float
        Bound on both the relative parameter change and the equation
        residual when plugging the estimate back in.
    max_iter : int
        Budget of fixed-point map evaluations.

    Notes
    -----
    Fixed-point iteration, accelerated by SQUAREM: the map takes the
    reweighted mean and the reweighted scatter at the current radii, and
    every second map output is extrapolated along the last two steps
    unless that loses positive definiteness.  Gaussian weights converge at
    the first evaluation to the sample mean and the 1/n-denominator sample
    covariance.  An exhausted budget, or an iterate that loses positive
    definiteness, raises ConvergenceError.
    """
    return _fit(X, spec, tol, max_iter)


def graphical_m_estimate(X, index: GraphIndex, spec: EstimatorSpec,
                         tol: float = 1e-9, max_iter: int = 500) -> FitResult:
    """Solve the graph-constrained M-estimating equations.

    The accelerated fixed-point iteration of :func:`m_estimate` with
    every reweighted scatter replaced by its graph-constrained completion;
    ``max_iter`` counts map evaluations.  The completion is warm-started
    from the previous completion's concentration, so late evaluations
    need about one IPS sweep each.  A complete graph gives exactly the
    :func:`m_estimate` result.
    """
    return _fit(X, spec, tol, max_iter, index)


def plug_in_estimate(X, index: GraphIndex, spec: EstimatorSpec,
                     tol: float = 1e-9, max_iter: int = 500,
                     completion_tol: float = 1e-10) -> FitResult:
    """Unconstrained M-estimate followed by constrained completion."""
    fit = m_estimate(X, spec, tol=tol, max_iter=max_iter)
    S_P = constrain_scatter(fit.scatter, index, tol=completion_tol).matrix
    return FitResult(fit.mu, S_P, fit.iterations, fit.converged, fit.residual)


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

    denom = radial.expect(integrand)
    sigma1 = p * (p + 2.0) / denom
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

    lo, hi = 1.0, 1.0
    g_hi = gap(hi)
    tries = 0
    while g_hi < 0.0:
        hi *= 2.0
        g_hi = gap(hi)
        tries += 1
        if tries > 60:
            raise PreconditionError(
                "no consistency root: E[phi2(c R)] stays below p "
                f"(spec {spec.name!r} cannot match this radial law)")
    g_lo = gap(lo)
    tries = 0
    while g_lo > 0.0:
        lo /= 2.0
        g_lo = gap(lo)
        tries += 1
        if tries > 60:
            raise PreconditionError(
                "no consistency root: E[phi2(c R)] stays above p "
                f"(spec {spec.name!r} cannot match this radial law)")
    c = scipy.optimize.brentq(gap, lo, hi, xtol=1e-13, rtol=8.9e-16)

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
    its kurtosis formula; everything else goes through the M-estimator
    scalars at the family's radial law.
    """
    if spec.name == "gaussian":
        nu = _family_nu(family)
        if nu is not None and nu <= 4:
            raise PreconditionError(
                f"sample covariance needs finite fourth moments (t with nu > 4), got nu={nu}")
        return sample_cov_scalars(0.0 if nu is None else 6.0 / (nu - 4.0), p)
    return m_scalars(spec, radial_for_family(family, p), p)
