"""Multivariate M-estimators of location and scatter.

Provides one fixed-point solver of the simultaneous location/scatter
equations, unconstrained or graph-constrained, the plug-in estimator, and the
asymptotic scalars (sigma1, sigma2, eta) of the three classical cases:
sample covariance, elliptical maximum likelihood, and general monotone
M-estimators.

The solver accelerates the fixed-point map by SQUAREM (Varadhan & Roland
2008) and moves every accepted extrapolation along its scale ray, S -> S/s,
onto the trace identity mean phi2(s r_i) = p.  Every fixed point meets
that identity at s = 1, while the map itself leaves the scale direction
almost neutral; so the step changes no fixed point and removes the slowest
mode of the iteration.

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

The t maximum-likelihood estimator at its own family has closed-form
scalars; every other pairing integrates its radial law's density by
adaptive quadrature.  Distribution functions come from ``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Callable, Optional

import numpy as np

from .covsel import AsymptoticScalars, _check_budget, _complete, _newton, constrain_scatter
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
from .linops import _has_cholesky

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


def _integer(x, least: int) -> bool:
    """Is ``x`` an integer, not a bool, and >= ``least``?"""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= least


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


def _reweight(X, mu, S, spec, center=None, live=None, rescale=None):
    """The fixed-point map at (mu, S), per slice of the stacks X[live]
    (R, n, p), mu (R, p) and S (R, p, p), X[live] never copied whole: the
    u1-weighted mean and the u2-weighted scatter about ``center``, by
    default that new mean.

    A tile is a group of slices (:func:`_groups`) times a block of
    ``_BLOCK`` rows.  Each group passes over its blocks for the radii,
    then for both weights and the weighted row sums, then for the weighted
    scatter about the new mean.  So temporaries are bounded by the tile,
    apart from one radius per row, and blocks depend on n alone: a slice
    keeps its stack-of-one bits.

    With ``rescale``, a flag per slice, a flagged slice is mapped at
    (mu, S / s) instead, s from :func:`_scale_root` on its radii, and the
    scales s (1 where not flagged) are returned as a third array.
    """
    n, p = X.shape[1:]
    live = np.arange(len(X)) if live is None else live
    blocks = [slice(a, a + _BLOCK) for a in range(0, n, _BLOCK)]
    # inverting the p x p factor once beats a general solve for n columns
    L_inv = np.linalg.inv(np.linalg.cholesky(0.5 * (S + S.mT)))
    mu_new, scatter, scales = np.empty_like(mu), np.empty_like(S), np.ones(len(live))
    for G in _groups(len(live), n):
        # a run of consecutive slices is a view, any other tile a copy
        t = live[G]
        Xt = X[t[0]:t[-1] + 1] if t[-1] - t[0] < len(t) else X[t]
        radii = np.empty((len(t), n))
        for b in blocks:
            Y = L_inv[G] @ (Xt[:, b] - mu[G, None, :]).mT
            np.einsum("rij,rij->rj", Y, Y, out=radii[:, b])
        if rescale is not None and rescale[G].any():
            # the radii at S/s are s r; all n radii of a slice enter its root
            i = np.flatnonzero(rescale[G])
            scales[G.start + i] = _scale_root(radii[i], spec, p)
            radii *= scales[G, None]
        w2, sums, totals = [], [], []
        for b in blocks:
            r = radii[:, b]
            w1 = spec.u1(r)
            w2.append(spec.u2(r))
            # einsum adds the rows in order, as numpy's strided sum does; at
            # p = 1 numpy sums pairwise, so the mean there keeps that sum
            sums.append(np.einsum("rn,rni->ri", w1, Xt[:, b]) if p > 1
                        else (w1[..., None] * Xt[:, b]).sum(axis=1))
            totals.append(w1.sum(axis=1))
        mu_new[G] = reduce(add, sums) / reduce(add, totals)[:, None]
        c = (mu_new if center is None else center)[G, None, :]
        parts = []
        for b, w in zip(blocks, w2):
            Xc = Xt[:, b] - c
            parts.append((w[..., None] * Xc).mT @ Xc)
        scatter[G] = reduce(add, parts) / n
    return (mu_new, scatter) if rescale is None else (mu_new, scatter, scales)


# the scale root is sought in [2^-60, 2^60], as m_scalars brackets its root
_SPAN = 2.0 ** 60


def _scale_root(radii, spec: EstimatorSpec, p: int) -> np.ndarray:
    """Per row of ``radii`` (k, n), the n squared radii r_i of one slice:
    the scale s > 0 with mean phi2(s r_i) = p to 1e-13 p, phi2(v) =
    v u2(v); 1 where no root lies in [2^-60, 2^60].  This is the sample
    form of the consistency equation of :func:`m_scalars`: every fixed
    point of the M-estimating equations, plain or graph-constrained, meets
    it at s = 1.

    From s = 1 the first step is the ratio s p / mean phi2(s r), exact for
    a linear phi2, and the next are secant steps.  A step that leaves the
    bracket of a sign change, or that does not halve it, bisects it; one
    that points away from a root not yet bracketed moves by a factor of 4
    instead.  Each row runs on its own numbers, so its root does not
    depend on the other rows.
    """
    def gap(s, rows):
        v = s[:, None] * (radii if len(rows) == len(radii) else radii[rows])
        return (v * spec.u2(v)).mean(axis=1) - p

    k = len(radii)
    out, rows = np.ones(k), np.arange(k)
    s, s_old, f_old = np.ones(k), np.full(k, np.nan), np.full(k, np.nan)
    lo, hi, width = np.zeros(k), np.full(k, np.inf), np.full(k, np.inf)
    f = gap(s, rows)
    for _ in range(200):
        lo, hi = np.where(f < 0, s, lo), np.where(f > 0, s, hi)
        done = (np.abs(f) <= 1e-13 * p) | (hi - lo <= 4 * np.finfo(float).eps * lo)
        out[rows[done]] = s[done]
        keep = ~done & (((f < 0) & (s < _SPAN)) | ((f > 0) & (s > 1 / _SPAN)))
        if not keep.any():
            break
        rows, s, f, s_old, f_old, lo, hi, width = (
            a[keep] for a in (rows, s, f, s_old, f_old, lo, hi, width))
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(np.isnan(s_old), p * s / (f + p), s - f * (s - s_old) / (f - f_old))
        bracketed = (lo > 0) & (hi < np.inf)
        bisect = bracketed & ((hi - lo > 0.5 * width) | ~((lo < c) & (c < hi)))
        away = ~bracketed & ~((lo < c) & (c < hi))  # NaN included
        c = np.where(bisect, 0.5 * (lo + hi), np.where(away, np.where(f < 0, 4 * s, s / 4), c))
        width = np.where(bracketed, hi - lo, np.inf)
        s_old, f_old, s = s, f, np.clip(c, 1 / _SPAN, _SPAN)
        f = gap(s, rows)
    return out


def _residual(X, mu, S, spec, index: Optional[GraphIndex] = None, live=None) -> np.ndarray:
    """Max-abs residual of the estimating equations, per slice of X[live];
    under ``index`` on edges and the diagonal, and |S^-1| on absent edges."""
    mu_fix, W = _reweight(X, mu, S, spec, center=mu, live=live)
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
    extrapolated S has no finite Cholesky factor takes theta2 itself.
    Returns the points and the flags of the slices whose step it took."""
    (m0, S0), (m1, S1), (m2, S2) = theta0, theta1, theta2
    r, v = (m1 - m0, S1 - S0), (m2 - 2.0 * m1 + m0, S2 - 2.0 * S1 + S0)
    rr, vv = ((x * x).sum(axis=1) + (y * y).sum(axis=(1, 2)) for x, y in (r, v))
    a = -np.sqrt(np.maximum(1.0, np.divide(rr, vv, out=np.ones_like(rr), where=vv > 0)))
    mu = m0 - 2.0 * a[:, None] * r[0] + (a * a)[:, None] * v[0]
    S = S0 - 2.0 * a[:, None, None] * r[1] + (a * a)[:, None, None] * v[1]
    ok = _has_cholesky(S)
    return np.where(ok[:, None], mu, m2), np.where(ok[:, None, None], S, S2), ok


def _solve(X, spec: EstimatorSpec, tol: float, max_iter: int,
           index: Optional[GraphIndex] = None, start: Optional[list] = None) -> list:
    """Fixed-point iteration of the M-estimating equations, accelerated by
    SQUAREM, on each slice of an (R, n, p) stack of validated data sets,
    constrained to the graph of ``index`` when that graph has an absent edge.

    A plain fit starts at the sample mean and covariance.  A graphical fit
    starts at the slice's plug-in estimate (:func:`_plug_in`), one outcome
    per slice in ``start`` or else computed here; a slice whose plug-in
    failed fails with the plug-in's error, before any map evaluation, and
    a plug-in that raises raises here.  The map reweights location and
    scatter at its input; under a graph it then completes the weighted
    scatter (:func:`egm.covsel._newton`), started from the previous
    completion, the plug-in's at first, to an inner tolerance that follows
    the outer progress down to one hundredth of ``tol``.  After every
    second map evaluation the iterate is extrapolated (:func:`_extrapolate`);
    an accepted extrapolation is mapped from its scale-corrected point S/s
    (:func:`_scale_root`, skipped for the constant Gaussian weights), and
    that point starts the next cycle, while a rejected one keeps the plain
    iterate unscaled.  So a solve whose every extrapolation is rejected is
    the plain iteration, bit for bit.  Each map output is tested for
    convergence, its change from the previous output and then its
    residual, so an estimate is always a map output.  Both must be within
    ``tol``, except that from a plug-in start, whose first steps are
    already small, the change must be within ``tol``/10, its location part
    taken relative to max(1, max|mu|) of the plug-in so that it stays
    above rounding.  A slice leaves the stack once it converges or runs
    out of budget (``max_iter`` map evaluations, or the steps of a
    completion), so it takes exactly the evaluations it would take alone.
    Returns one FitResult, or the ConvergenceError of an exhausted budget,
    per slice.  Any other failure raises for the whole stack; a lost
    definiteness raises ConvergenceError naming the evaluation.
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
        W, unit = None, np.ones(R)
    else:
        start = _plug_in(X, spec, tol, max_iter, index.k_mask) if start is None else start
        out = [f if isinstance(f, Exception) else None for f in start]
        live, stop = np.flatnonzero([f is None for f in out]), tol / 10
        mu = np.array([start[i].mu for i in live]).reshape(-1, p)
        # the plug-in's completion starts the first inner completion
        S = W = np.array([start[i].scatter for i in live]).reshape(-1, p, p)
        # the location change is relative to the plug-in's location, so
        # that the tighter stop stays above rounding
        unit = np.maximum(1.0, np.max(np.abs(mu), axis=1))
    try:
        change = np.full(len(live), np.inf)
        scaled = spec.name != "gaussian"  # constant weights: s moves no map output
        path = []  # the inputs (mu, S) of this cycle's map evaluations
        while True:
            # the slices with an outcome leave; the data stack is never copied
            keep = np.array([out[r] is None for r in live], dtype=bool)
            if not keep.all():
                live, mu, S, change, unit = (a[keep] for a in (live, mu, S, change, unit))
                W = None if W is None else W[keep]
                path = [(m[keep], s[keep]) for m, s in path]
            if not live.size or it == max_iter:
                break
            it += 1
            if len(path) < 2:
                path.append((mu, S))
                mu_new, S_new = _reweight(X, mu, S, spec, live=live)
            else:
                # an accepted step is mapped from its scale-corrected point,
                # and that point starts the next cycle
                mu_x, S_x, accepted = _extrapolate(*path, (mu, S))
                mu_new, S_new, s = _reweight(X, mu_x, S_x, spec, live=live,
                                             rescale=accepted & scaled)
                path = [(mu_x, S_x / s[:, None, None])]
            if index is not None:
                inner_tol = np.minimum(np.maximum(1e-2 * change, 1e-2 * tol), 1e-2)
                # warm start from the last completion, not an extrapolated S
                W, _, failed = _newton(S_new, index.k_mask, inner_tol, start=W)
                S_new = W
                for i, exc in failed.items():
                    out[live[i]] = exc
            scale = np.maximum(1.0, np.max(np.abs(S), axis=(1, 2)))
            change = np.maximum(np.max(np.abs(mu_new - mu), axis=1) / unit,
                                np.max(np.abs(S_new - S), axis=(1, 2)) / scale)
            mu, S = mu_new, S_new
            conv = [i for i in np.flatnonzero(change <= stop) if out[live[i]] is None]
            if conv:
                c = slice(None) if len(conv) == len(live) else conv
                for i, r in zip(conv, _residual(X, mu[c], S[c], spec, index, live[c])):
                    if r <= tol:
                        out[live[i]] = FitResult(mu[i].copy(), S[i].copy(), it, True, float(r))
        if live.size:
            for r, res in zip(live, _residual(X, mu, S, spec, index, live)):
                out[r] = ConvergenceError(f"{what} did not converge in {max_iter} iterations "
                                          f"(residual {res:.3e})", residual=float(res))
    except (np.linalg.LinAlgError, DefinitenessError) as exc:
        raise ConvergenceError(
            f"{what} lost positive definiteness at iteration {it}: {exc}") from exc
    return out


# the completion tolerance of a plug-in estimate that starts a graphical fit
_COMPLETION_TOL = 1e-10

# the estimators' default budget of map evaluations
_MAX_ITER = 500


def _plug_in(X, spec: EstimatorSpec, tol: float, max_iter: int, k_mask) -> list:
    """The plug-in estimate on each slice of an (R, n, p) stack of validated
    data sets: the unconstrained fit, its scatter completed under
    ``k_mask``.  One FitResult, or the ConvergenceError of the fit or of
    the completion that ran out of budget, per slice; any other failure
    raises for the whole stack."""
    out = _solve(X, spec, tol, max_iter)
    ok = [i for i, f in enumerate(out) if isinstance(f, FitResult)]
    if ok:
        completed = _complete(np.array([out[i].scatter for i in ok]), k_mask, _COMPLETION_TOL)
        for i, c in zip(ok, completed):
            f = out[i]
            out[i] = c if isinstance(c, ConvergenceError) else FitResult(
                f.mu, c.matrix, f.iterations, f.converged, f.residual)
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
        Bound on both the relative parameter change and the equation
        residual when plugging the estimate back in.
    max_iter : int
        Budget of fixed-point map evaluations.

    Notes
    -----
    Fixed-point iteration, accelerated by SQUAREM: the map takes the
    reweighted mean and the reweighted scatter at the current radii, and
    every second map output is extrapolated along the last two steps
    unless that loses positive definiteness.  An accepted extrapolation is
    first rescaled, S -> S/s, so that its radii meet the trace identity
    mean phi2(s r_i) = p that holds at every fixed point; this removes the
    map's slowest, near-neutral scale mode.  Each evaluation passes over
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

    The accelerated fixed-point iteration of :func:`m_estimate` with
    every reweighted scatter replaced by its graph-constrained completion,
    and the same scale step at each accepted extrapolation: the identity
    mean phi2(r_i) = p holds at a constrained fixed point too, since S and
    the reweighted scatter agree on the edges and the diagonal, where
    alone S^-1 is non-zero.

    The iteration starts at :func:`plug_in_estimate` (same ``tol`` and
    ``max_iter``), which lies O_p(1/n) from the graphical fixed point, and
    stops once a step changes the estimate by at most ``tol``/10 (the
    location relative to max(1, max|mu|)) and the residual is at most
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
                     tol: float = 1e-9, max_iter: int = _MAX_ITER,
                     completion_tol: float = _COMPLETION_TOL) -> FitResult:
    """Unconstrained M-estimate followed by constrained completion."""
    _one(X, spec, index)  # the data must fit the graph before any fit runs
    fit = m_estimate(X, spec, tol=tol, max_iter=max_iter)
    S_P = constrain_scatter(fit.scatter, index, tol=completion_tol).matrix
    return FitResult(fit.mu, S_P, fit.iterations, fit.converged, fit.residual)


def _plug_in_and_graphical(X, index: GraphIndex, spec: EstimatorSpec, tol: float,
                           max_iter: int = _MAX_ITER) -> list:
    """:func:`plug_in_estimate` and :func:`graphical_m_estimate` on each
    slice of an (R, n, p) stack of validated data sets, sharing one
    unconstrained fit: the graphical fits start at the plug-ins.  Per
    slice the pair of FitResults, or the error of the first of the two to
    fail; any other failure raises for the whole stack."""
    plugs = _plug_in(X, spec, tol, max_iter, index.k_mask)
    fits = _solve(X, spec, tol, max_iter, index, plugs)
    return [plug if isinstance(plug, Exception) else fit if isinstance(fit, Exception)
            else (plug, fit) for plug, fit in zip(plugs, fits)]


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
