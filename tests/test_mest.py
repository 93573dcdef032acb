import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
import scipy.stats

from egm import covsel, mest
from egm.covsel import constrain_scatter
from egm.errors import (
    ConvergenceError,
    DefinitenessError,
    DegenerateDataError,
    DimensionError,
    PreconditionError,
    SampleSizeError,
    _results,
)
from egm.graphs import Graph, build_index
from egm.inference import _deviance_stack, chordless_cycle_shape, deviance
from egm.linops import duplication_matrix, mat
from egm.mest import (
    EstimatorSpec,
    RadialLaw,
    graphical_m_estimate,
    m_estimate,
    m_scalars,
    make_spec,
    mle_scalars,
    plug_in_estimate,
    radial_for_family,
    sample_cov_scalars,
    scalars_for,
)
from egm.mest import _BLOCK, _reweight, _solve
from egm.simulate import EllipticalModel, deviance_null_study, sample

from _oracles import Q_K, hg_optimization_oracle, plain_fixed_point, rand_spd, reweight_oracle

rng = np.random.default_rng(808)


def gross_outlier(scale):
    """t-fit input with one row scaled up: standard normal 100 x 4, seed 0."""
    X = np.random.default_rng(0).standard_normal((100, 4))
    X[0] *= scale
    return X


def near_collinear(scale):
    """Graphical-fit input whose second column is the first plus noise of
    size 1/scale: standard normal 100 x 4, seed 165.  At scale 1e8 the
    4-cycle completion of its scatter loses definiteness."""
    local = np.random.default_rng(165)
    X = local.standard_normal((100, 4))
    X[:, 1] = X[:, 0] + local.standard_normal(100) / scale
    return X


class TestSpecs:
    def test_string_forms(self):
        assert make_spec("gaussian", 3).name == "gaussian"
        t = make_spec("t:5", 3)
        assert t.params["nu"] == 5.0
        h = make_spec("huber:1.345", 3)
        assert h.params["k"] == 1.345

    @pytest.mark.parametrize("text", ["gaussian", "t:5", "huber:1.345"])
    def test_records_dimension(self, text):
        assert make_spec(text, 3).params["p"] == 3

    @pytest.mark.parametrize("text", ["gaussian", "t:5", "huber:1.345"])
    def test_fits_refuse_spec_of_another_dimension(self, text):
        X = rng.standard_normal((60, 5))
        index = build_index(Graph.cycle(5))
        spec = make_spec(text, 3)
        for fit in (lambda: m_estimate(X, spec), lambda: graphical_m_estimate(X, index, spec),
                    lambda: plug_in_estimate(X, index, spec)):
            with pytest.raises(DimensionError, match="built for p=3, not for p=5"):
                fit()

    def test_hand_built_spec_has_no_dimension(self):
        # the t:5 weights of p=5, without params["p"]: fitted, and scored by quadrature
        u = lambda s: 10.0 / (5.0 + np.asarray(s, dtype=float))
        spec = EstimatorSpec("t:5", u, u, {"nu": 5.0})
        X = rng.standard_normal((60, 5))
        fit = m_estimate(X, spec)
        ref = m_estimate(X, make_spec("t:5", 5))
        assert np.array_equal(fit.mu, ref.mu) and np.array_equal(fit.scatter, ref.scatter)
        assert scalars_for(spec, "t:5", 5) == m_scalars(spec, radial_for_family("t:5", 5), 5)

    def test_t_weights_formula(self):
        spec = make_spec("t:5", 3)
        s = np.array([0.0, 1.0, 10.0])
        assert np.allclose(spec.u1(s), (3 + 5) / (5 + s), atol=1e-15)
        assert np.allclose(spec.u2(s), spec.u1(s), atol=1e-15)

    def test_unknown_spec(self):
        with pytest.raises(PreconditionError):
            make_spec("tukey:4", 3)

    def test_bad_parameters(self):
        with pytest.raises(PreconditionError):
            make_spec("t:-1", 3)
        with pytest.raises(PreconditionError):
            make_spec("huber:0", 3)

    @pytest.mark.parametrize("text", ["t:nan", "t:inf", "huber:nan", "huber:inf", "huber:-inf"])
    def test_non_finite_parameters(self, text):
        with pytest.raises(PreconditionError, match="finite"):
            make_spec(text, 3)

    @pytest.mark.parametrize("text,what", [("t:abc", "t degrees of freedom"),
                                           ("huber:x", "huber threshold"),
                                           ("huber:", "huber threshold")])
    def test_parameter_not_a_number(self, text, what):
        with pytest.raises(PreconditionError, match=f"{what} in '{text}' is not a number; "
                                                    "accepted forms are gaussian, t:NU and huber:K"):
            make_spec(text, 3)

    def test_huber_consistency_constant(self):
        # quadrature constant vs the chi-square identity
        # E[min(R, a)] = p F_{p+2}(a) + a (1 - F_p(a)) under chi2_p
        p, k = 3, 1.345
        spec = make_spec(f"huber:{k}", p)
        a = k * k
        closed = p / (p * scipy.stats.chi2.cdf(a, p + 2)
                      + a * (1.0 - scipy.stats.chi2.cdf(a, p)))
        assert abs(spec.params["c"] - closed) < 1e-10

    @pytest.mark.parametrize("p", [3, 5, 10, 30])
    @pytest.mark.parametrize("k", [0.5, 1.345, 2.5])
    def test_huber_constant_matches_quadrature(self, p, k):
        quad = p / radial_for_family("gaussian", p).expect(lambda r: np.minimum(r, k * k))
        c = make_spec(f"huber:{k}", p).params["c"]
        assert abs(c - quad) / quad <= 1e-10

    @pytest.mark.parametrize("name", ["gaussian", "t:5", "t:8", "huber:1.345", "huber:2.0"])
    def test_builtin_monotonicity(self, name):
        make_spec(name, 4).check_monotone()

    def test_nan_weights_fail_monotonicity(self):
        nan = EstimatorSpec("nan", lambda s: np.full_like(np.asarray(s, float), np.nan),
                            lambda s: np.full_like(np.asarray(s, float), np.nan))
        with pytest.raises(PreconditionError, match="not non-increasing"):
            nan.check_monotone()
        with pytest.raises(PreconditionError):
            m_scalars(nan, RadialLaw.chi_square(3), 3)

    @pytest.mark.parametrize("build, p", [
        (lambda p: make_spec("t:5", p), 0), (lambda p: make_spec("t:5", p), 2.5),
        (lambda p: make_spec("huber:1.345", p), 0), (lambda p: make_spec("gaussian", p), True),
        (RadialLaw.chi_square, 1.5), (lambda p: RadialLaw.scaled_f(p, 5.0), 2.5),
        (lambda p: RadialLaw.from_density(scipy.stats.chi2(4).pdf, p), 4.0)])
    def test_dimension_must_be_a_positive_integer(self, build, p):
        # huber:1.345 at p = 0 warned of 0/0 and then blamed monotonicity
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=f"integer dimension p >= 1, got p={p!r}$"):
                build(p)

    def test_monotonicity_violation_detected(self):
        bad = EstimatorSpec("bad", lambda s: np.asarray(s, float),
                            lambda s: np.ones_like(np.asarray(s, float)))
        with pytest.raises(PreconditionError):
            bad.check_monotone()


class TestRadialLaws:
    def test_densities_normalized(self):
        RadialLaw.chi_square(3)
        RadialLaw.scaled_f(3, 5.0)
        RadialLaw.from_density(scipy.stats.chi2(4).pdf, 4)

    def test_bad_density_rejected(self):
        with pytest.raises(PreconditionError):
            RadialLaw.from_density(lambda r: 2.0 * scipy.stats.chi2(4).pdf(r), 4)

    def test_chi_square_moments(self):
        law = RadialLaw.chi_square(3)
        assert abs(law.expect(lambda r: r) - 3.0) < 1e-9
        assert abs(law.expect(lambda r: r * r) - 15.0) < 1e-8

    def test_scaled_f_mean(self):
        p, nu = 3, 7.0
        law = RadialLaw.scaled_f(p, nu)
        assert abs(law.expect(lambda r: r) - p * nu / (nu - 2.0)) < 1e-8

    @pytest.mark.parametrize("nu", [-1.0, 0.0, np.nan])
    def test_scaled_f_rejects_bad_degrees_of_freedom(self, nu):
        with pytest.raises(PreconditionError, match="t degrees of freedom"):
            RadialLaw.scaled_f(3, nu)

    def test_chi_square_rejects_dimension_zero(self):
        with pytest.raises(PreconditionError, match="p >= 1"):
            RadialLaw.chi_square(0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_nan_density_rejected(self):
        # abs(nan - 1) > tol is False, so the check must be written to fail on NaN
        with pytest.raises(PreconditionError, match="integrates to nan"):
            RadialLaw.from_density(lambda r: np.full_like(r, np.nan), 3)

    def test_family_parsing(self):
        assert radial_for_family("gaussian", 3).kind == "chi-square-p"
        assert radial_for_family("t:5", 3).kind.startswith("scaled-f")
        with pytest.raises(PreconditionError):
            radial_for_family("cauchy", 3)

    @pytest.mark.parametrize("family", ["t:", "t:abc"])
    def test_family_parameter_not_a_number(self, family):
        with pytest.raises(PreconditionError, match=r"t degrees of freedom in .* is not a number; "
                                                    "accepted forms are gaussian, t:NU and huber:K"):
            radial_for_family(family, 3)

    @pytest.mark.parametrize("family", ["t:nan", "t:inf", "t:0", "t:-2"])
    def test_family_parameter_finite_and_positive(self, family):
        with pytest.raises(PreconditionError):
            radial_for_family(family, 3)
        for spec in ("gaussian", "t:5"):
            with pytest.raises(PreconditionError):
                scalars_for(make_spec(spec, 3), family, 3)


class TestScipyStatsParity:
    """The distribution functions egm evaluates from scipy.special equal, bit
    for bit, the scipy.stats calls they replace; scipy.stats is the oracle."""

    GRID = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 400)])

    def assert_density(self, law, expected):
        assert np.array_equal(law.density(self.GRID), expected)
        # one point at a time, as the quadrature evaluates it
        assert np.array_equal([law.density(np.array([r]))[0] for r in self.GRID], expected)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10, 30])
    def test_chi_square_density(self, p):
        self.assert_density(RadialLaw.chi_square(p), scipy.stats.chi2(p).pdf(self.GRID))

    @pytest.mark.parametrize("p", [1, 3, 5, 10])
    @pytest.mark.parametrize("nu", [1.0, 2.5, 5.0, 30.0])
    def test_scaled_f_density(self, p, nu):
        self.assert_density(RadialLaw.scaled_f(p, nu),
                            scipy.stats.f(p, nu).pdf(self.GRID / p) / p)

    @pytest.mark.parametrize("p", [1, 3, 5, 10, 30])
    @pytest.mark.parametrize("k", [0.5, 1.345, 2.5])
    def test_huber_constant(self, p, k):
        k2 = k * k
        c = p / (p * scipy.stats.chi2.cdf(k2, p + 2) + k2 * scipy.stats.chi2.sf(k2, p))
        assert make_spec(f"huber:{k}", p).params["c"] == c

    @pytest.mark.parametrize("graph1", [Graph.complete(5), Graph.cycle(5).with_edge(1, 3)],
                             ids=["complete", "chord"])
    def test_deviance_p_value(self, graph1):
        _, S = chordless_cycle_shape(5, -0.3)
        i0, i1 = build_index(Graph.cycle(5)), build_index(graph1)
        S_hat = S + 0.05 * np.ones((5, 5))  # off the null pattern
        for sigma1 in [*np.geomspace(1e-3, 1e3, 25), 1.0]:
            rep = deviance(S_hat, i0, i1, 200, sigma1=sigma1)
            assert rep.p_value == float(scipy.stats.chi2.sf(rep.statistic, rep.df))
        assert deviance(S, i0, i1, 200).p_value == float(scipy.stats.chi2.sf(0.0, i0.q - i1.q))

    @pytest.mark.parametrize("graph1", [Graph.complete(5), Graph.cycle(5).with_edge(1, 3)],
                             ids=["complete", "chord"])
    def test_null_study_reference_quantiles(self, graph1):
        _, S = chordless_cycle_shape(5, -0.3)
        i0, i1 = build_index(Graph.cycle(5)), build_index(graph1)
        rep = deviance_null_study(i0, i1, EllipticalModel(np.zeros(5), S, "gaussian"),
                                  make_spec("gaussian", 5), n=50, replicates=3, seed=5)
        df = rep.summary["df"]
        assert rep.summary["reference_quantiles"] == {
            str(q): float(scipy.stats.chi2.ppf(q, df)) for q in (0.5, 0.9, 0.95, 0.99)}


class TestMEstimate:
    def test_gaussian_weights_give_mean_and_cov(self):
        X = rng.standard_normal((40, 3)) * [1.0, 2.0, 0.5] + [1.0, -2.0, 0.0]
        fit = m_estimate(X, make_spec("gaussian", 3))
        Xc = X - X.mean(axis=0)
        assert np.max(np.abs(fit.mu - X.mean(axis=0))) == 0.0
        assert np.max(np.abs(fit.scatter - Xc.T @ Xc / len(X))) < 1e-14
        assert fit.converged

    def test_gaussian_weights_give_mean_in_one_dimension(self):
        X = rng.standard_normal((3000, 1)) * 3.0 + 1.0
        fit = m_estimate(X, make_spec("gaussian", 1))
        assert np.array_equal(fit.mu, X.mean(axis=0))

    def test_t5_fit_on_t5_data(self):
        S = np.array([[2.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.5]])
        model = EllipticalModel(np.array([1.0, 2.0, 3.0]), S, "t:5")
        X = sample(model, 2000, 11)
        fit = m_estimate(X, make_spec("t:5", 3), tol=1e-9)
        assert fit.residual <= 1e-9
        # the fit targets the shape matrix itself; allow sampling error
        assert np.max(np.abs(fit.scatter - S)) < 6.0 * np.max(np.abs(S)) / np.sqrt(2000)

    def test_fixed_point_plugs_back(self):
        X = sample(EllipticalModel(np.zeros(3), np.eye(3), "t:6"), 500, 3)
        spec = make_spec("t:6", 3)
        tol = 1e-10
        fit = m_estimate(X, spec, tol=tol)
        n = len(X)
        Xc = X - fit.mu
        L = np.linalg.cholesky(fit.scatter)
        R = np.einsum("ij,ij->j", np.linalg.solve(L, Xc.T), np.linalg.solve(L, Xc.T))
        w1, w2 = spec.u1(R), spec.u2(R)
        mu_fix = (w1[:, None] * X).sum(axis=0) / w1.sum()
        S_fix = (w2[:, None] * Xc).T @ Xc / n
        assert np.max(np.abs(mu_fix - fit.mu)) <= tol
        assert np.max(np.abs(S_fix - fit.scatter)) <= tol * max(1.0, np.max(np.abs(fit.scatter)))

    @pytest.mark.parametrize("name", ["t:5", "huber:1.345"])
    def test_affine_equivariance(self, name):
        X = sample(EllipticalModel(np.zeros(3), np.eye(3), "t:5"), 400, 17)
        spec = make_spec(name, 3)
        local = np.random.default_rng(18)
        T = local.standard_normal((3, 3)) + 3 * np.eye(3)
        b = local.standard_normal(3)
        base = m_estimate(X, spec, tol=1e-11)
        moved = m_estimate(X @ T.T + b, spec, tol=1e-11)
        assert np.max(np.abs(moved.scatter - T @ base.scatter @ T.T)) <= 1e-8
        assert np.max(np.abs(moved.mu - (T @ base.mu + b))) <= 1e-8

    def test_sample_size_error(self):
        with pytest.raises(SampleSizeError, match="p\\+1"):
            m_estimate(np.eye(3), make_spec("gaussian", 3))

    def test_degenerate_data_error(self):
        X = rng.standard_normal((20, 3))
        X[:, 2] = X[:, 0] + X[:, 1]
        with pytest.raises(DegenerateDataError):
            m_estimate(X, make_spec("gaussian", 3))

    def test_zero_budget_rejected(self):
        X = sample(EllipticalModel(np.zeros(3), np.eye(3), "t:5"), 100, 5)
        with pytest.raises(PreconditionError, match="at least one iteration"):
            m_estimate(X, make_spec("t:5", 3), max_iter=0)

    @pytest.mark.parametrize("tol", [np.nan, -1.0])
    def test_tolerance_not_finite_and_positive_rejected(self, tol):
        X = sample(EllipticalModel(np.zeros(4), np.eye(4), "t:5"), 100, 5)
        for fit in (m_estimate, lambda X, spec, tol: graphical_m_estimate(
                X, build_index(Graph.cycle(4)), spec, tol=tol)):
            with pytest.raises(PreconditionError, match="tol must be finite and > 0"):
                fit(X, make_spec("t:5", 4), tol=tol)

    def test_non_convergence_error(self):
        X = sample(EllipticalModel(np.zeros(3), np.eye(3), "t:5"), 100, 5)
        with pytest.raises(ConvergenceError) as exc:
            m_estimate(X, make_spec("t:5", 3), tol=1e-12, max_iter=2)
        assert exc.value.residual is not None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_names_position(self, value):
        X = rng.standard_normal((20, 3))
        X[6, 1] = value
        with pytest.raises(PreconditionError, match="row 7, column 2"):
            m_estimate(X, make_spec("t:5", 3))

    def test_lost_definiteness_is_convergence_error(self):
        # a gross outlier makes the sample covariance numerically singular
        X = gross_outlier(1e10)
        with pytest.raises(ConvergenceError, match="iteration 1") as exc:
            m_estimate(X, make_spec("t:5", 4))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


class TestGraphicalMEstimate:
    def test_gaussian_collapses_to_completion(self):
        idx = build_index(Graph.cycle(4))
        X = rng.standard_normal((200, 4))
        fit = graphical_m_estimate(X, idx, make_spec("gaussian", 4), tol=1e-10)
        Xc = X - X.mean(axis=0)
        expected = constrain_scatter(Xc.T @ Xc / len(X), idx, tol=1e-12).matrix
        assert np.max(np.abs(fit.mu - X.mean(axis=0))) <= 1e-8
        assert np.max(np.abs(fit.scatter - expected)) <= 1e-8
        # the plug-in start is already the answer: one evaluation confirms it,
        # also on rows with the cycle's dependence (3 evaluations from a cold start)
        assert fit.iterations == 1
        K0, S0 = chordless_cycle_shape(4, -0.3)
        Y = sample(EllipticalModel(np.zeros(4), S0, "gaussian"), 200, 9)
        assert graphical_m_estimate(Y, idx, make_spec("gaussian", 4), tol=1e-10).iterations == 1

    def test_objective_gradient_vanishes(self):
        # with u1 = u2 = rho' the fit is a critical point of
        # logdet K - avg rho((x - mu)^T K (x - mu)) over (mu, free K entries)
        p, nu = 4, 5.0
        K0, S0 = chordless_cycle_shape(p, -0.3)
        X = sample(EllipticalModel(np.zeros(p), S0, "t:5"), 1000, 21)
        idx = build_index(Graph.cycle(p))
        fit = graphical_m_estimate(X, idx, make_spec("t:5", p), tol=1e-11)
        Dp, Dp_plus = duplication_matrix(p)
        QtK = Q_K(idx) @ Dp  # selects K from v(A)

        def objective(theta):
            mu, kfree = theta[:p], theta[p:]
            Kmat = mat(Dp @ (QtK.T @ kfree), p)
            sign, ld = np.linalg.slogdet(Kmat)
            if sign <= 0:
                return -np.inf
            Xc = X - mu
            R = np.einsum("ij,jk,ik->i", Xc, Kmat, Xc)
            return ld - np.mean((p + nu) * np.log(nu + R))

        Khat = np.linalg.inv(fit.scatter)
        theta0 = np.concatenate([fit.mu, QtK @ (Dp_plus @ Khat.reshape(-1, order="F"))])
        h = 1e-6
        grad = np.empty_like(theta0)
        for t in range(len(theta0)):
            e = np.zeros_like(theta0)
            e[t] = h
            grad[t] = (objective(theta0 + e) - objective(theta0 - e)) / (2 * h)
        assert np.linalg.norm(grad) <= 1e-5

    def test_diagonal_scaling_equivariance(self):
        idx = build_index(Graph.cycle(4))
        X = sample(EllipticalModel(np.zeros(4), np.eye(4), "t:5"), 600, 8)
        d = np.array([0.5, 2.0, 1.3, 0.8])
        base = graphical_m_estimate(X, idx, make_spec("t:5", 4), tol=1e-11)
        scaled = graphical_m_estimate(X * d, idx, make_spec("t:5", 4), tol=1e-11)
        assert np.max(np.abs(scaled.scatter - np.outer(d, d) * base.scatter)) <= 1e-7

    def test_complete_graph_matches_unconstrained(self):
        idx = build_index(Graph.complete(3))
        X = sample(EllipticalModel(np.zeros(3), np.eye(3), "t:5"), 400, 12)
        spec = make_spec("t:5", 3)
        plain = m_estimate(X, spec, tol=1e-11)
        constrained = graphical_m_estimate(X, idx, spec, tol=1e-11)
        assert np.max(np.abs(constrained.scatter - plain.scatter)) <= 1e-7
        assert np.max(np.abs(constrained.mu - plain.mu)) <= 1e-8
        assert np.array_equal(constrained.scatter, plain.scatter)
        assert np.array_equal(constrained.mu, plain.mu)
        assert constrained.iterations == plain.iterations

    def test_completion_is_warm_started(self, monkeypatch):
        # one inverse per completion sweep: cold starts at every outer step cost 103 here
        calls = []
        inverse = covsel.spd_inverse

        def counted(A):
            calls.append(A.shape)
            return inverse(A)

        monkeypatch.setattr(covsel, "spd_inverse", counted)
        K0, S0 = chordless_cycle_shape(5, -0.3)
        X = sample(EllipticalModel(np.zeros(5), S0, "t:5"), 500, 3)
        fit = graphical_m_estimate(X, build_index(Graph.cycle(5)), make_spec("t:5", 5))
        assert fit.converged
        assert len(calls) <= 60

    @pytest.mark.parametrize("name", ["t:5", "huber:1.345"])
    @pytest.mark.parametrize("n", [300, 4000])
    @pytest.mark.parametrize("p", [5, 10])
    def test_tight_tolerance_on_t1_rows(self, monkeypatch, p, n, name):
        # started cold, the completion of the Cauchy rows' sample covariance
        # cannot reach its absolute 1e-15: it ran 10,000 sweeps (1.5-3 s) and raised
        sweeps = []
        inverse = covsel.spd_inverse
        monkeypatch.setattr(covsel, "spd_inverse", lambda A: sweeps.append(1) or inverse(A))
        K0, S0 = chordless_cycle_shape(p, -0.3)
        X = sample(EllipticalModel(np.zeros(p), S0, "t:1"), n, 9)
        fit = graphical_m_estimate(X, build_index(Graph.cycle(p)), make_spec(name, p), tol=1e-13)
        assert fit.converged and fit.residual <= 1e-13
        # one inverse per sweep, at most 148 here: the sweep count bounds the run time
        assert len(sweeps) <= 400

    @pytest.mark.parametrize("name", ["t:5", "huber:1.345"])
    def test_location_offset(self, name):
        # the tighter stop of a plug-in start is relative to the location,
        # so an offset of 1e6 still leaves the change above rounding
        K0, S0 = chordless_cycle_shape(5, -0.3)
        X = sample(EllipticalModel(np.zeros(5), S0, "t:5"), 300, 9)
        idx, spec = build_index(Graph.cycle(5)), make_spec(name, 5)
        fit, shifted = (graphical_m_estimate(Y, idx, spec) for Y in (X, X + 1e6))
        assert shifted.converged and shifted.iterations <= 2 * fit.iterations
        assert np.max(np.abs(shifted.mu - 1e6 - fit.mu)) <= 1e-8
        assert np.max(np.abs(shifted.scatter - fit.scatter)) <= 1e-8

    def test_ill_conditioned_scatter_warns(self):
        X = sample(EllipticalModel(np.zeros(4), np.eye(4), "t:5"), 300, 4)
        X[:, 1] *= 1e-7  # scatter condition number about 1e14
        with pytest.warns(RuntimeWarning, match="condition number"):
            fit = graphical_m_estimate(X, build_index(Graph.cycle(4)), make_spec("t:5", 4))
        assert fit.converged

    @pytest.mark.parametrize("name", ["gaussian", "t:5"])
    def test_lost_definiteness_is_convergence_error(self, name):
        # only the Gaussian plug-in reaches the completion, which warns and
        # loses definiteness; the t:5 plug-in fit loses it first
        gaussian = name == "gaussian"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceError, match="definiteness") as exc:
                graphical_m_estimate(near_collinear(1e8), build_index(Graph.cycle(4)),
                                     make_spec(name, 4))
        assert any("condition number" in str(w.message) for w in caught) == gaussian
        cause = DefinitenessError if gaussian else np.linalg.LinAlgError
        assert type(exc.value.__cause__) is cause

    @pytest.mark.parametrize("case", ["collinear gaussian", "collinear t:5"])
    def test_fails_exactly_like_its_plug_in(self, monkeypatch, case):
        # there is no other start: a failed plug-in is the graphical fit's error
        X, p, name = {
            "collinear gaussian": (near_collinear(1e8), 4, "gaussian"),
            "collinear t:5": (near_collinear(1e8), 4, "t:5"),
        }[case]
        idx, spec = build_index(Graph.cycle(p)), make_spec(name, p)
        sweeps = []
        inverse = covsel.spd_inverse
        monkeypatch.setattr(covsel, "spd_inverse", lambda A: sweeps.append(1) or inverse(A))

        def failure(fit):
            sweeps.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(ConvergenceError) as exc:
                    fit()
            assert len(sweeps) <= 10_100
            e = exc.value
            return type(e), str(e), e.residual, type(e.__cause__)

        expected = failure(lambda: plug_in_estimate(X, idx, spec))
        assert failure(lambda: graphical_m_estimate(X, idx, spec)) == expected
        assert failure(lambda: _results(mest._plug_in_and_graphical(
            mest._one(X, spec, idx), idx, spec, 1e-9))) == expected

    @pytest.mark.parametrize("case", ["scaled", "shifted"])
    def test_scaled_and_shifted_data_converge(self, case):
        # the stops are in the iterate's units, so scaled and shifted data
        # converge, plug-in and graphical fit, stacked or alone
        K0, S0 = chordless_cycle_shape(5, -0.3)
        model = EllipticalModel(np.zeros(5), S0, "t:5")
        X = {"scaled": 1e-4 * sample(model, 200, 3), "shifted": 1e6 + sample(model, 4000, 9)}[case]
        idx, spec = build_index(Graph.cycle(5)), make_spec("t:5", 5)
        plug, fit = plug_in_estimate(X, idx, spec), graphical_m_estimate(X, idx, spec)
        assert plug.converged and fit.converged and fit.residual <= 1e-9
        (plug2, fit2), = _results(mest._plug_in_and_graphical(mest._one(X, spec, idx), idx, spec,
                                                               1e-9))
        assert np.array_equal(plug.scatter, plug2.scatter)
        assert np.array_equal(fit.scatter, fit2.scatter)

    def test_huber_graphical_fit(self):
        idx = build_index(Graph.cycle(4))
        K0, S0 = chordless_cycle_shape(4, -0.3)
        X = sample(EllipticalModel(np.zeros(4), S0, "t:5"), 600, 44)
        fit = graphical_m_estimate(X, idx, make_spec("huber:1.345", 4), tol=1e-9)
        assert fit.converged and fit.residual <= 1e-9
        assert np.max(np.abs(np.linalg.inv(fit.scatter)[idx.d_mask])) <= 1e-9

    def test_huber_weights_survive_zero_radius(self):
        spec = make_spec("huber:1.345", 3)
        with np.errstate(all="raise"):
            assert spec.u1(np.array([0.0]))[0] == 1.0
            assert spec.u2(np.array([0.0]))[0] == spec.params["c"]

    def test_residual_satisfies_constraints(self):
        idx = build_index(Graph.cycle(5))
        K0, S0 = chordless_cycle_shape(5, -0.25)
        X = sample(EllipticalModel(np.zeros(5), S0, "t:5"), 800, 30)
        fit = graphical_m_estimate(X, idx, make_spec("t:5", 5), tol=1e-9)
        assert fit.converged and fit.residual <= 1e-9
        Kinv = np.linalg.inv(fit.scatter)
        assert np.max(np.abs(Kinv[idx.d_mask])) <= 1e-9


class TestPlugIn:
    def test_complete_graph_is_unconstrained(self):
        X = sample(EllipticalModel(np.zeros(3), np.eye(3), "t:5"), 300, 2)
        idx = build_index(Graph.complete(3))
        spec = make_spec("t:5", 3)
        plain = m_estimate(X, spec, tol=1e-10)
        plug = plug_in_estimate(X, idx, spec, tol=1e-10)
        assert np.array_equal(plug.scatter, plain.scatter)
        assert np.array_equal(plug.mu, plain.mu)

    def test_completion_tolerance_not_finite_rejected(self):
        X = sample(EllipticalModel(np.zeros(4), np.eye(4), "t:5"), 100, 5)
        with pytest.raises(PreconditionError, match="tol must be finite and > 0"):
            plug_in_estimate(X, build_index(Graph.cycle(4)), make_spec("t:5", 4),
                             completion_tol=np.nan)

    def test_edge_entries_and_inverse_zeros(self):
        idx = build_index(Graph.cycle(4))
        X = sample(EllipticalModel(np.zeros(4), np.eye(4), "t:5"), 400, 13)
        spec = make_spec("t:5", 4)
        plain = m_estimate(X, spec, tol=1e-10)
        plug = plug_in_estimate(X, idx, spec, tol=1e-10, completion_tol=1e-11)
        assert np.max(np.abs((plug.scatter - plain.scatter)[idx.k_mask])) <= 1e-9
        assert np.max(np.abs(np.linalg.inv(plug.scatter)[idx.d_mask])) <= 1e-9

    @pytest.mark.parametrize("text", ["gaussian", "t:5", "huber:1.345"])
    def test_data_of_another_dimension_rejected_before_fitting(self, monkeypatch, text):
        X = rng.standard_normal((60, 5))
        index, spec = build_index(Graph.cycle(4)), make_spec(text, 5)
        monkeypatch.setattr(mest, "_solve", None)  # no fit may run
        for fit in (graphical_m_estimate, plug_in_estimate):
            with pytest.raises(DimensionError, match="data has 5 columns but the graph has p=4"):
                fit(X, index, spec)

    def test_lost_definiteness_is_convergence_error(self):
        # the completion of the Gaussian fit loses definiteness on an SPD input
        with pytest.warns(RuntimeWarning, match="condition number"):
            with pytest.raises(ConvergenceError, match="definiteness") as exc:
                plug_in_estimate(near_collinear(1e8), build_index(Graph.cycle(4)),
                                 make_spec("gaussian", 4))
        assert isinstance(exc.value.__cause__, DefinitenessError)

    @pytest.mark.parametrize("scale", [1e-4, 1e4])
    def test_scaled_completion_ends_within_its_budget(self, monkeypatch, scale):
        # at unit diagonal the completion does not depend on the data's scale
        K0, S0 = chordless_cycle_shape(5, -0.3)
        X = scale * sample(EllipticalModel(np.zeros(5), S0, "t:5"), 200, 3)
        calls = []
        inverse = covsel.spd_inverse
        monkeypatch.setattr(covsel, "spd_inverse", lambda A: calls.append(1) or inverse(A))
        fit = plug_in_estimate(X, build_index(Graph.cycle(5)), make_spec("t:5", 5))
        assert fit.converged
        # one inverse checks the input, one the start and one each of 200 steps
        assert len(calls) <= 202

    def test_gaussian_cycle_matches_likelihood_oracle(self):
        idx = build_index(Graph.cycle(4))
        X = rng.standard_normal((500, 4))
        plug = plug_in_estimate(X, idx, make_spec("gaussian", 4), completion_tol=1e-12)
        Xc = X - X.mean(axis=0)
        oracle = hg_optimization_oracle(Xc.T @ Xc / len(X), idx)
        assert np.linalg.norm(plug.scatter - oracle, "fro") <= 1e-6


class TestScalars:
    def test_sample_cov_gaussian(self):
        s = sample_cov_scalars(0.0)
        assert (s.sigma1, s.sigma2, s.eta) == (1.0, 0.0, 1.0)

    def test_sample_cov_formula(self):
        s = sample_cov_scalars(1.0)
        assert np.isclose(s.sigma1, 4.0 / 3.0, atol=1e-15)
        assert np.isclose(s.sigma2, 1.0 / 3.0, atol=1e-15)

    def test_sample_cov_bound_violation(self):
        with pytest.raises(PreconditionError):
            sample_cov_scalars(-2.9, p=100)

    def test_t10_kurtosis_monte_carlo(self):
        # excess kurtosis of a t_10 margin is 6/(nu-4) = 1
        x = np.random.default_rng(404).standard_t(10, 2_000_000)
        assert abs(scipy.stats.kurtosis(x) - 1.0) < 0.05
        sample_cov_scalars(1.0, p=3)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_mle_nan_expectation_rejected(self):
        # NaN fails no comparison, so only a finiteness check stops it
        with pytest.raises(PreconditionError, match="must be finite"):
            mle_scalars(RadialLaw.chi_square(3), lambda y: np.full_like(np.asarray(y, float), np.nan), 3)

    def test_mle_gaussian_closed_form(self):
        s = mle_scalars(RadialLaw.chi_square(4), lambda y: -0.5 * np.ones_like(np.asarray(y, float)), 4)
        assert abs(s.sigma1 - 1.0) < 1e-9
        assert abs(s.sigma2) < 1e-9

    def test_mle_t5_vs_monte_carlo(self):
        p, nu = 3, 5.0
        logderiv = lambda y: -0.5 * (p + nu) / (nu + np.asarray(y, float))
        s = mle_scalars(radial_for_family("t:5", p), logderiv, p)
        r = p * np.random.default_rng(71).f(p, nu, 1_000_000)
        u = (p + nu) / (nu + r)
        mc_sigma1 = p * (p + 2.0) / np.mean((r * u) ** 2)
        assert abs(s.sigma1 - mc_sigma1) / mc_sigma1 < 0.01

    def test_mle_sigma2_sign(self):
        p, nu = 3, 5.0
        logderiv = lambda y: -0.5 * (p + nu) / (nu + np.asarray(y, float))
        s = mle_scalars(radial_for_family("t:5", p), logderiv, p)
        assert s.sigma1 > 1.0 and s.sigma2 > 0.0

    def test_m_gaussian_at_gaussian(self):
        s = m_scalars(make_spec("gaussian", 3), RadialLaw.chi_square(3), 3)
        assert abs(s.sigma1 - 1.0) < 1e-9
        assert abs(s.sigma2) < 1e-9
        assert abs(s.eta - 1.0) < 1e-12

    def test_m_specializes_to_mle(self):
        p, nu = 3, 5.0
        radial = radial_for_family("t:5", p)
        sm = m_scalars(make_spec("t:5", p), radial, p)
        se = mle_scalars(radial, lambda y: -0.5 * (p + nu) / (nu + np.asarray(y, float)), p)
        assert abs(sm.sigma1 - se.sigma1) <= 1e-6
        assert abs(sm.sigma2 - se.sigma2) <= 1e-6
        assert abs(sm.eta - 1.0) <= 1e-10

    @pytest.mark.parametrize("p,nu", [(3, 5), (5, 5), (10, 3), (8, 10)])
    def test_t_mle_sigma1_closed_form(self, p, nu):
        # Tyler (1982): the elliptical-t MLE has sigma1 = (p+nu+2)/(p+nu)
        radial = radial_for_family(f"t:{nu}", p)
        expected = (p + nu + 2.0) / (p + nu)
        sm = m_scalars(make_spec(f"t:{nu}", p), radial, p)
        se = mle_scalars(radial, lambda y: -0.5 * (p + nu) / (nu + np.asarray(y, float)), p)
        assert abs(sm.sigma1 - expected) <= 1e-10
        assert abs(se.sigma1 - expected) <= 1e-10

    @pytest.mark.parametrize("p", [1, 2, 5, 10, 30])
    @pytest.mark.parametrize("nu", [1.0, 2.5, 5.0, 30.0])
    def test_t_mle_closed_form_matches_quadrature(self, p, nu):
        spec = make_spec(f"t:{nu:g}", p)
        closed = scalars_for(spec, f"t:{nu:g}", p)
        radial = radial_for_family(f"t:{nu:g}", p)
        quad_m = m_scalars(spec, radial, p)
        quad_mle = mle_scalars(radial, lambda y: -0.5 * (p + nu) / (nu + np.asarray(y, float)), p)
        for s in (quad_m, quad_mle):
            got, want = np.array(astuple(closed)), np.array(astuple(s))
            assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    @pytest.mark.parametrize("family,spec_p", [("t:3", 4), ("gaussian", 4), ("t:5", 3)])
    def test_t_at_other_family_integrates(self, monkeypatch, family, spec_p):
        # a t:5 spec built for p=3 weighs by 8/(5+s): at p=4 it is not the MLE
        calls = []
        monkeypatch.setattr(mest, "m_scalars", lambda *a: calls.append(1) or m_scalars(*a))
        s = scalars_for(make_spec("t:5", spec_p), family, 4)
        assert len(calls) == 1
        assert s == m_scalars(make_spec("t:5", spec_p), radial_for_family(family, 4), 4)

    def test_huber_defining_equation(self):
        p = 3
        spec = make_spec("huber:1.5", p)
        radial = RadialLaw.chi_square(p)
        s = m_scalars(spec, radial, p)
        root = 1.0 / s.eta
        assert abs(radial.expect(lambda r: spec.phi2(root * r)) - p) <= 1e-9

    def test_no_consistency_root(self):
        # phi2 bounded strictly below p: no scale can satisfy the equation
        cap = EstimatorSpec("capped",
                            lambda s: np.ones_like(np.asarray(s, float)),
                            lambda s: np.minimum(1.0, 0.5 / np.asarray(s, float)))
        with pytest.raises(PreconditionError, match="root"):
            m_scalars(cap, RadialLaw.chi_square(3), 3)

    @pytest.mark.parametrize("name", ["gaussian", "t:5", "t:8", "huber:1.345"])
    @pytest.mark.parametrize("family", ["gaussian", "t:5", "t:8"])
    def test_bounds_for_all_pairings(self, name, family):
        p = 4
        s = scalars_for(make_spec(name, p), family, p)
        assert s.sigma1 >= 0.0
        s.check_bounds(p)

    def test_scalars_for_sample_cov_needs_moments(self):
        with pytest.raises(PreconditionError):
            scalars_for(make_spec("gaussian", 3), "t:4", 3)

    def test_scalars_for_gaussian_at_t10(self):
        s = scalars_for(make_spec("gaussian", 3), "t:10", 3)
        assert np.isclose(s.sigma1, 4.0 / 3.0, atol=1e-12)
        assert np.isclose(s.sigma2, 1.0 / 3.0, atol=1e-12)


class TestStackedSolver:
    """``mest._solve`` fits each slice of a stack as the public estimators
    fit it alone; the slices that fail leave and the others go on."""

    @staticmethod
    def stack(outlier, graph=False):
        # slice 1 loses definiteness; slice 2 (t:1 rows) needs more than 11
        # map evaluations, slice 3 (t:5 rows) 10
        return [sample(EllipticalModel(np.zeros(4), np.eye(4), "gaussian"), 100, 0),
                near_collinear(outlier) if graph else gross_outlier(outlier),
                sample(EllipticalModel(np.zeros(4), np.eye(4), "t:1"), 100, 1),
                sample(EllipticalModel(np.zeros(4), np.eye(4), "t:5"), 100, 1)]

    @pytest.mark.filterwarnings("ignore:input matrix has condition number")
    @pytest.mark.parametrize("graph, outlier", [(False, 1e10), (True, 1e8)])
    def test_failures_are_isolated(self, graph, outlier):
        index = build_index(Graph.cycle(4)) if graph else None
        spec = make_spec("t:5", 4)
        data = self.stack(outlier, graph)
        stacked = _solve(np.array(data), spec, 1e-9, 11, index)
        failed = []
        for i, (X, out) in enumerate(zip(data, stacked)):
            try:
                fit = (graphical_m_estimate(X, index, spec, max_iter=11) if graph
                       else m_estimate(X, spec, max_iter=11))
            except ConvergenceError as exc:
                failed.append(i)
                assert type(out) is ConvergenceError and str(out) == str(exc)
                assert type(out.__cause__) is type(exc.__cause__)
                assert out.residual == exc.residual
                continue
            assert np.array_equal(out.mu, fit.mu) and np.array_equal(out.scatter, fit.scatter)
            assert (out.iterations, out.residual) == (fit.iterations, fit.residual)
        assert failed == [1, 2]
        assert "definiteness" in str(stacked[1]) and "did not converge" in str(stacked[2])

    @staticmethod
    def scatters():
        # slice 1, the Gaussian scatter of near_collinear(1e8), stalls in its 4-cycle
        # completion; the others are Gaussian scatters that complete
        data = [sample(EllipticalModel(np.zeros(4), np.eye(4), "gaussian"), 100, s)
                for s in (0, 1, 2)]
        data.insert(1, near_collinear(1e8))
        return np.array([m_estimate(X, make_spec("gaussian", 4)).scatter for X in data])

    @pytest.mark.filterwarnings("ignore:input matrix has condition number")
    def test_completion_failures_are_isolated(self):
        cycle, chord = build_index(Graph.cycle(4)), build_index(Graph.cycle(4).with_edge(1, 3))
        S = self.scatters()
        completed = covsel._complete(S, cycle.k_mask, 1e-10)
        stats = _deviance_stack(S, cycle, chord, 100, 1.0)
        for i, (A, fit, stat) in enumerate(zip(S, completed, stats)):
            if i != 1:
                alone = constrain_scatter(A, cycle, tol=1e-10)
                assert np.array_equal(fit.matrix, alone.matrix)
                assert (fit.iterations, fit.residual_history) == (
                    alone.iterations, alone.residual_history)
                assert stat == deviance(A, cycle, chord, 100).statistic
                continue
            for out, serial in ((fit, lambda: constrain_scatter(A, cycle, tol=1e-10)),
                                (stat, lambda: deviance(A, cycle, chord, 100))):
                with pytest.raises(ConvergenceError, match="definiteness") as exc:
                    serial()
                assert type(out) is ConvergenceError and str(out) == str(exc.value)
                assert type(out.__cause__) is type(exc.value.__cause__) is DefinitenessError

    def test_failing_slices_emit_no_runtime_warning(self):
        # a slice without a factor computes on a finite stand-in until it leaves
        spec, cycle = make_spec("t:5", 4), build_index(Graph.cycle(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", "input matrix has condition number", RuntimeWarning)
            plain = _solve(np.array(self.stack(1e10)), spec, 1e-9, 11)
            graphical = _solve(np.array(self.stack(1e8, graph=True)), spec, 1e-9, 11, cycle)
            completed = covsel._complete(self.scatters(), cycle.k_mask, 1e-10)
        for out in (plain[1], graphical[1], completed[1]):
            assert isinstance(out, ConvergenceError) and "definiteness" in str(out)


def cycle10_t5(n, seed):
    """t:5 rows on the 10-cycle shape with partial correlation -0.3."""
    K0, S0 = chordless_cycle_shape(10, -0.3)
    return sample(EllipticalModel(np.zeros(10), S0, "t:5"), n, seed)


class TestAcceleration:
    """The relaxed step of ``mest._solve``: a relaxation that the Cholesky
    check rejects leaves the plain iteration with the scale step, slice by
    slice."""

    @pytest.mark.parametrize("graph", [False, True])
    @pytest.mark.parametrize("name, family", [("t:5", "t:5"), ("t:1", "t:5"),
                                              ("huber:1.345", "t:5"), ("t:5", "gaussian")])
    def test_all_rejected_is_plain_iteration(self, monkeypatch, graph, name, family):
        index = build_index(Graph.cycle(5)) if graph else None
        K0, S0 = chordless_cycle_shape(5, -0.3)
        X = sample(EllipticalModel(np.zeros(5), S0, family), 300, 9)
        spec = make_spec(name, 5)
        fast, = _solve(X[None], spec, 1e-9, 500, index)
        monkeypatch.setattr(mest, "_has_cholesky", lambda S: np.zeros(len(S), dtype=bool))
        plain, = _solve(X[None], spec, 1e-9, 500, index)
        mu, S, iterations = plain_fixed_point(X, spec, 1e-9, 500, index)
        assert np.array_equal(plain.mu, mu) and np.array_equal(plain.scatter, S)
        assert plain.iterations == iterations
        assert fast.iterations < iterations

    def test_fit_large_huber_converges(self):
        # sup phi2 exceeds p by 0.045% here, so the plain iteration
        # contracts at about 0.998 per step and runs out of its 500 steps
        X = cycle10_t5(4000, 61)
        spec = make_spec("huber:1.345", 10)
        tol = 1e-9
        fit = m_estimate(X, spec, tol=tol)
        assert fit.converged and fit.residual <= tol
        Xc = X - fit.mu
        L = np.linalg.cholesky(fit.scatter)
        R = np.sum(np.linalg.solve(L, Xc.T) ** 2, axis=0)
        w1, w2 = spec.u1(R), spec.u2(R)
        assert np.max(np.abs((w1[:, None] * X).sum(axis=0) / w1.sum() - fit.mu)) <= tol
        S_fix = (w2[:, None] * Xc).T @ Xc / len(X)
        assert np.max(np.abs(S_fix - fit.scatter)) <= tol * max(1.0, np.max(np.abs(fit.scatter)))
        plug = plug_in_estimate(X, build_index(Graph.cycle(10)), spec, tol=tol)
        assert plug.converged and np.array_equal(plug.mu, fit.mu)

    def test_fit_large_huber_reaches_fixed_point(self):
        # the scale step removes the near-neutral scale mode of the map;
        # without it both fits take about 300 evaluations and the plain one
        # stops 5e-8 (relative) away from its fixed point
        X = cycle10_t5(4000, 61)
        spec = make_spec("huber:1.345", 10)
        fit = m_estimate(X, spec)
        assert fit.iterations <= 30
        assert graphical_m_estimate(X, build_index(Graph.cycle(10)), spec).iterations <= 30
        ref = m_estimate(X, spec, tol=1e-13, max_iter=5000)
        assert np.max(np.abs(fit.scatter - ref.scatter)) <= 1e-8 * np.max(np.abs(ref.scatter))

    def test_evaluation_count(self):
        # the plain iteration takes 55 map evaluations for both fits
        X = cycle10_t5(4000, 61)
        spec = make_spec("t:5", 10)
        assert m_estimate(X, spec).iterations <= 25
        assert graphical_m_estimate(X, build_index(Graph.cycle(10)), spec).iterations <= 25

    @pytest.mark.parametrize("graph", [False, True])
    @pytest.mark.parametrize("family", ["t:5", "t:1", "gaussian"])
    def test_tol_bounds_the_error(self, graph, family):
        # the change test measures the plain map's step, not the relaxed one,
        # so a fit at tol lies within tol of its tightly converged reference
        index = build_index(Graph.cycle(10)) if graph else None
        K0, S0 = chordless_cycle_shape(10, -0.3)
        X = sample(EllipticalModel(np.zeros(10), S0, family), 300, 9)
        spec = make_spec("huber:1.345", 10)

        def fit(tol):
            return (graphical_m_estimate(X, index, spec, tol=tol, max_iter=5000) if graph
                    else m_estimate(X, spec, tol=tol, max_iter=5000))

        got, ref = fit(1e-9), fit(1e-13)
        unit = max(1.0, np.max(np.abs(ref.scatter)))
        assert np.max(np.abs(got.mu - ref.mu)) <= 1e-9
        assert np.max(np.abs(got.scatter - ref.scatter)) <= 1e-9 * unit

    @pytest.mark.parametrize("graph", [False, True])
    def test_rejection_is_per_slice(self, monkeypatch, graph):
        # only slice 2, whose data are 100 times larger, has its
        # relaxations rejected; every slice must still be its solo fit
        index = build_index(Graph.cycle(4)) if graph else None
        spec = make_spec("t:5", 4)
        K0, S0 = chordless_cycle_shape(4, -0.3)
        data = [sample(EllipticalModel(np.zeros(4), S0, "t:5"), 200, s) for s in range(4)]
        data[2] = 100.0 * data[2]
        checked = []

        def has_cholesky(S):
            big = np.max(np.abs(S), axis=(1, 2)) > 100.0
            checked.extend(big)
            return ~big

        monkeypatch.setattr(mest, "_has_cholesky", has_cholesky)
        stacked = _solve(np.array(data), spec, 1e-9, 500, index)
        assert any(checked) and not all(checked)
        for X, out in zip(data, stacked):
            fit = graphical_m_estimate(X, index, spec) if graph else m_estimate(X, spec)
            assert np.array_equal(out.mu, fit.mu) and np.array_equal(out.scatter, fit.scatter)
            assert (out.iterations, out.residual) == (fit.iterations, fit.residual)
        mu, S, iterations = plain_fixed_point(data[2], spec, 1e-9, 500, index)
        assert np.array_equal(stacked[2].scatter, S) and stacked[2].iterations == iterations


class TestScaleRoot:
    """Every fixed point meets the trace identity mean phi2(r_i) = p, on
    which the solver's scale step moves each evaluation, and the step is
    taken from u1 and u2 alone."""

    @pytest.mark.parametrize("graph", [False, True])
    @pytest.mark.parametrize("name", ["t:5", "huber:1.345"])
    def test_hand_built_spec_keeps_bits(self, graph, name):
        index = build_index(Graph.cycle(5)) if graph else None
        K0, S0 = chordless_cycle_shape(5, -0.3)
        X = sample(EllipticalModel(np.zeros(5), S0, "t:5"), 300, 9)
        spec = make_spec(name, 5)
        hand = EstimatorSpec("hand-built", spec.u1, spec.u2)
        a, b = (graphical_m_estimate(X, index, s) if graph else m_estimate(X, s) for s in (spec, hand))
        assert np.array_equal(a.mu, b.mu) and np.array_equal(a.scatter, b.scatter)
        assert (a.iterations, a.residual) == (b.iterations, b.residual)

    @pytest.mark.parametrize("graph", [False, True])
    @pytest.mark.parametrize("name", ["t:1", "t:5", "huber:1.345"])
    def test_identity_at_convergence(self, graph, name):
        K0, S0 = chordless_cycle_shape(5, -0.3)
        X = sample(EllipticalModel(np.zeros(5), S0, "t:5"), 300, 9)
        spec, tol = make_spec(name, 5), 1e-9
        fit = (graphical_m_estimate(X, build_index(Graph.cycle(5)), spec, tol=tol) if graph
               else m_estimate(X, spec, tol=tol))
        Y = np.linalg.solve(np.linalg.cholesky(fit.scatter), (X - fit.mu).T)
        assert abs(np.mean(spec.phi2(np.sum(Y * Y, axis=0))) - 5) <= tol


    def test_flat_phi2_steps_down(self):
        # every radius beyond k^2: Huber's phi2 is flat at c k^2 > p, so the scale
        # must step down, whatever the sign of the rounding in its central difference
        spec = make_spec("huber:1.345", 5)
        radii = 1.345 ** 2 * np.random.default_rng(0).uniform(2.0, 50.0, (200, 40))
        assert np.all(mest._factors(radii, spec, 5)[0] == 0.5)


class TestBlockedPass:
    """``mest._reweight`` passes over the rows in blocks of ``_BLOCK``:
    a stack's slices keep their solo bits, the map is one-pass arithmetic
    up to rounding, and its temporaries do not grow with n."""

    @pytest.mark.parametrize("graph", [False, True])
    def test_stack_slices_equal_solo_fits(self, graph):
        index = build_index(Graph.cycle(4)) if graph else None
        spec = make_spec("t:5", 4)
        K0, S0 = chordless_cycle_shape(4, -0.3)
        n = 2 * _BLOCK + 17
        data = [sample(EllipticalModel(np.zeros(4), S0, "t:5"), n, s) for s in range(3)]
        stacked = _solve(np.array(data), spec, 1e-9, 500, index)
        for X, out in zip(data, stacked):
            fit = graphical_m_estimate(X, index, spec) if graph else m_estimate(X, spec)
            assert np.array_equal(out.mu, fit.mu) and np.array_equal(out.scatter, fit.scatter)
            assert (out.iterations, out.residual) == (fit.iterations, fit.residual)

    @pytest.mark.parametrize("name", ["gaussian", "t:5", "huber:1.345"])
    @pytest.mark.parametrize("centered", [False, True])
    def test_matches_one_pass_oracle(self, name, centered):
        local = np.random.default_rng(17)
        R, n, p = 2, 3 * _BLOCK + 5, 6
        X = local.standard_normal((R, n, p)) @ np.triu(np.ones((p, p))) + 3.0
        mu = X.mean(axis=1) + 0.1
        S = np.array([rand_spd(p, local) for _ in range(R)])
        center = mu - 0.2 if centered else None
        spec = make_spec(name, p)
        mu_new, W = _reweight(X, mu, S, spec, center)
        mu_ref, W_ref = reweight_oracle(X, mu, S, spec, center)
        assert np.max(np.abs(mu_new - mu_ref)) <= 1e-13 * np.max(np.abs(mu_ref))
        assert np.max(np.abs(W - W_ref)) <= 1e-13 * np.max(np.abs(W_ref))

    def test_one_block_is_one_pass(self):
        X = sample(EllipticalModel(np.zeros(5), np.eye(5), "t:5"), _BLOCK, 4)[None]
        mu, S = X.mean(axis=1) + 0.1, np.eye(5)[None] * 1.3
        spec = make_spec("t:5", 5)
        for a, b in zip(_reweight(X, mu, S, spec), reweight_oracle(X, mu, S, spec)):
            assert np.array_equal(a, b)

    # R leaves the last tile short: 32 + 13, 16 + 5 and 8 + 3 slices
    @pytest.mark.parametrize("n,R", [(250, 45), (500, 21), (1000, 11), (_BLOCK, 3),
                                     (_BLOCK + 1, 2)])
    @pytest.mark.parametrize("centered", [False, True])
    @pytest.mark.parametrize("p", [1, 5])
    def test_tiled_slices_equal_stack_of_one(self, n, R, centered, p):
        local = np.random.default_rng(n)
        X = local.standard_normal((R, n, p)) @ np.triu(np.ones((p, p))) + 3.0
        mu = X.mean(axis=1) + 0.1
        S = np.array([rand_spd(p, local) for _ in range(R)])
        center = mu - 0.2 if centered else None
        spec = make_spec("t:5", p)
        # every third slice left: tiles of scattered slices are copied
        live = np.flatnonzero(np.arange(R) % 3 != 1)
        stacked = _reweight(X, mu, S, spec, center)
        subset = _reweight(X, mu[live], S[live], spec, None if center is None else center[live],
                           live=live)
        for r in range(R):
            alone = _reweight(X[r:r + 1], mu[r:r + 1], S[r:r + 1], spec,
                              None if center is None else center[r:r + 1])
            for a, b in zip(stacked, alone):
                assert np.array_equal(a[r], b[0])
            if r in live:
                for a, b in zip(subset, alone):
                    assert np.array_equal(a[np.searchsorted(live, r)], b[0])

    def test_temporaries_bounded_by_tile(self):
        X = np.random.default_rng(6).standard_normal((256, 500, 5))
        mu, S = X.mean(axis=1), np.repeat(np.eye(5)[None], 256, axis=0)
        spec = make_spec("t:5", 5)
        tracemalloc.start()
        try:
            _reweight(X, mu, S, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * X.nbytes

    def test_temporaries_bounded_by_block(self):
        X = np.random.default_rng(5).standard_normal((1, 200_000, 10))
        mu, S = X.mean(axis=1), np.eye(10)[None]
        spec = make_spec("t:5", 10)
        tracemalloc.start()
        try:
            _reweight(X, mu, S, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * X.nbytes
