import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egm import inference
from egm.covsel import AsymptoticScalars, _complete
from egm.errors import (ConvergenceError, DefinitenessError, DimensionError, NestingError,
                        PreconditionError)
from egm.graphs import Graph, build_index
from egm.inference import (
    _are_cycle_table,
    _removal_bounds,
    are_chordless_cycle,
    asv_partial_correlation,
    backward_elimination,
    chordless_cycle_shape,
    deviance,
    partial_correlation,
    partial_correlation_derivative,
    resolve_sigma1,
)
from egm.linops import (_cholesky_logdet, commutation_matrix, kron, mat, spd_inverse,
                        symmetrization_matrix, vec)
from egm.mest import m_estimate, make_spec
from egm.simulate import EllipticalModel, sample

from _oracles import (are_cell_oracle, asv_oracle, backward_elimination_oracle, fd_directional,
                      rand_spd, random_graph, random_symmetric_direction)
from test_mest import near_collinear

rng = np.random.default_rng(31415)

UNIT = AsymptoticScalars(1.0, 0.0, 1.0)


class TestDeviance:
    def test_zero_when_pattern_holds(self):
        K, S = chordless_cycle_shape(5, -0.3)
        idx0 = build_index(Graph.cycle(5))
        idx1 = build_index(Graph.complete(5))
        rep = deviance(S, idx0, idx1, 100)
        assert rep.statistic == 0.0
        assert rep.df == idx0.q
        assert rep.p_value == 1.0

    @pytest.mark.parametrize("sigma1", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_sigma1_not_finite_and_positive(self, sigma1):
        idx0, idx1 = build_index(Graph.cycle(4)), build_index(Graph.complete(4))
        with pytest.raises(PreconditionError):
            deviance(np.eye(4), idx0, idx1, 50, sigma1=sigma1)

    def test_non_finite_estimate_named(self):
        S = np.eye(4)
        S[0, 3] = S[3, 0] = np.nan
        with pytest.raises(PreconditionError, match="non-finite value at row 1, column 4"):
            deviance(S, build_index(Graph.cycle(4)), build_index(Graph.complete(4)), 50)

    @pytest.mark.parametrize("n", [-5, 0, 2.5])
    def test_rejects_sample_size_not_a_positive_integer(self, n):
        idx0, idx1 = build_index(Graph.cycle(4)), build_index(Graph.complete(4))
        with pytest.raises(PreconditionError, match="integer >= 1"):
            deviance(rand_spd(4, rng), idx0, idx1, n)

    def test_equal_graphs_rejected(self):
        idx = build_index(Graph.cycle(4))
        with pytest.raises(NestingError):
            deviance(np.eye(4), idx, idx, 50)

    def test_non_nested_lists_edges(self):
        idx0 = build_index(Graph.from_edges(4, [(1, 2), (3, 4)]))
        idx1 = build_index(Graph.from_edges(4, [(1, 2), (2, 3)]))
        with pytest.raises(NestingError, match=r"\(3, 4\)"):
            deviance(np.eye(4), idx0, idx1, 50)

    def test_diagonal_rescaling_invariance(self):
        S = rand_spd(4, rng)
        d = np.array([0.3, 2.0, 1.0, 5.0])
        D = np.diag(d)
        idx0 = build_index(Graph.cycle(4))
        idx1 = build_index(Graph.complete(4))
        a = deviance(S, idx0, idx1, 200).statistic
        b = deviance(D @ S @ D, idx0, idx1, 200).statistic
        assert abs(a - b) <= 1e-9 * max(1.0, a)

    def test_statistics_telescope_along_chains(self):
        S = rand_spd(5, rng)
        G0 = Graph.cycle(5)
        G1 = G0.with_edge(1, 3)
        G2 = Graph.complete(5)
        i0, i1, i2 = (build_index(g) for g in (G0, G1, G2))
        n = 400
        d01 = deviance(S, i0, i1, n)
        d12 = deviance(S, i1, i2, n)
        d02 = deviance(S, i0, i2, n)
        assert abs(d01.statistic + d12.statistic - d02.statistic) <= 1e-9 * max(1.0, d02.statistic)
        assert d01.df + d12.df == d02.df

    def test_sigma1_rescales(self):
        S = rand_spd(4, rng)
        idx0 = build_index(Graph.cycle(4))
        idx1 = build_index(Graph.complete(4))
        a = deviance(S, idx0, idx1, 100, sigma1=1.0)
        b = deviance(S, idx0, idx1, 100, sigma1=2.0)
        assert np.isclose(a.statistic, 2.0 * b.statistic, rtol=1e-12)
        assert b.sigma1_used == 2.0

    def test_report_dict_schema(self):
        S = rand_spd(4, rng)
        rep = deviance(S, build_index(Graph.cycle(4)), build_index(Graph.complete(4)), 100)
        d = rep.to_dict()
        assert set(d) == {"statistic", "df", "p_value", "sigma1", "n"}
        assert d["df"] == 2 and d["n"] == 100
        assert 0.0 <= d["p_value"] <= 1.0


    def test_log_det_without_a_factor_fails_its_slice(self, monkeypatch):
        # a completed matrix without a Cholesky factor fails its own slice, not the stack
        cycle, chord = build_index(Graph.cycle(4)), build_index(Graph.cycle(4).with_edge(1, 3))
        S = np.array([rand_spd(4, np.random.default_rng(s)) for s in (0, 1, 2)])
        expected = [deviance(A, cycle, chord, 100).statistic for A in S]
        complete = inference._complete

        def lossy(A, masks, tol):
            fits = complete(A, masks, tol)
            fits[1].matrix = -fits[1].matrix
            return fits

        monkeypatch.setattr(inference, "_complete", lossy)
        stats = inference._deviance_stack(S, cycle, chord, 100, 1.0)
        assert type(stats[1]) is ConvergenceError and "Cholesky factor" in str(stats[1])
        assert [stats[0], stats[2]] == [expected[0], expected[2]]


class TestResolveSigma1:
    def test_explicit_wins(self):
        assert resolve_sigma1(make_spec("t:5", 3), 3, 1.7, "gaussian") == 1.7

    def test_gaussian_defaults_to_one(self):
        assert resolve_sigma1(make_spec("gaussian", 3), 3, None, None) == 1.0

    def test_robust_requires_context(self):
        with pytest.raises(PreconditionError):
            resolve_sigma1(make_spec("t:5", 3), 3, None, None)

    @pytest.mark.parametrize("sigma1", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_sigma1_not_finite_and_positive(self, sigma1):
        with pytest.raises(PreconditionError):
            resolve_sigma1(make_spec("gaussian", 3), 3, sigma1, None)


class TestBackwardElimination:
    @pytest.mark.parametrize("sigma1", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_sigma1_not_finite_and_positive(self, sigma1):
        X = rng.standard_normal((100, 4))
        with pytest.raises(PreconditionError):
            backward_elimination(X, make_spec("gaussian", 4), 0.05, sigma1=sigma1)

    @pytest.mark.parametrize("alpha", [np.nan, -0.1, 1.5, np.inf])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        X = rng.standard_normal((100, 4))
        with pytest.raises(PreconditionError):
            backward_elimination(X, make_spec("gaussian", 4), alpha)

    @pytest.mark.parametrize("shape", [(100,), (2, 100, 4)])
    def test_rejects_data_not_a_matrix(self, shape):
        with pytest.raises(DimensionError, match="n x p matrix"):
            backward_elimination(np.ones(shape), make_spec("gaussian", 4), 0.05)

    def test_scatter_near_singularity_is_a_convergence_error(self):
        # definiteness is judged by a Cholesky factor: the scatter has one (its LU
        # determinant sign is -1), and a candidate completion loses it
        with pytest.warns(RuntimeWarning, match="condition number"):
            with pytest.raises(ConvergenceError, match="while testing removal"):
                backward_elimination(near_collinear(1e8), make_spec("gaussian", 4), 0.05)

    def test_rejects_spec_of_another_dimension(self):
        X = rng.standard_normal((100, 4))
        with pytest.raises(DimensionError, match="built for p=3, not for p=4"):
            backward_elimination(X, make_spec("t:5", 3), 0.05, family="t:5")

    def test_one_completion_call_per_step(self, monkeypatch):
        import egm.covsel as cov
        import egm.inference as inf

        calls = []
        real = cov._complete

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        for module in (cov, inf):
            monkeypatch.setattr(module, "_complete", counted)
        K0, S0 = chordless_cycle_shape(8, -0.3)
        X = sample(EllipticalModel(np.zeros(8), S0, "gaussian"), 500, 12)
        G, steps = backward_elimination(X, make_spec("gaussian", 8), 0.05)
        assert len(steps) >= 10
        assert len(calls) <= len(steps) + 2

    def test_alpha_one_keeps_complete_graph(self):
        X = rng.standard_normal((100, 4))
        G, steps = backward_elimination(X, make_spec("gaussian", 4), alpha=1.0)
        assert G == Graph.complete(4)
        assert steps == []

    def test_diagonal_truth_recovers_empty(self):
        # Under the global null the last surviving edge is the maximum of
        # the six original chi2_1 statistics, so the success probability
        # is (1 - alpha)^6 ~ 0.735, not 1 - alpha; assert accordingly.
        model = EllipticalModel(np.zeros(4), np.diag([1.0, 2.0, 0.5, 1.5]), "gaussian")
        spec = make_spec("gaussian", 4)
        hits = 0
        for r in range(100):
            X = sample(model, 2000, [606, r])
            G, _ = backward_elimination(X, spec, 0.05)
            hits += (len(G.edges) == 0)
        assert hits >= 65

    def test_cycle_recovery(self):
        K0, S0 = chordless_cycle_shape(4, -0.4)
        model = EllipticalModel(np.zeros(4), S0, "gaussian")
        spec = make_spec("gaussian", 4)
        hits = 0
        for r in range(100):
            X = sample(model, 4000, [707, r])
            G, _ = backward_elimination(X, spec, 0.05)
            hits += (G.edges == Graph.cycle(4).edges)
        assert hits >= 80

    def test_audit_trail_schema(self):
        model = EllipticalModel(np.zeros(3), np.diag([1.0, 1.0, 1.0]), "gaussian")
        X = sample(model, 1000, 42)
        G, steps = backward_elimination(X, make_spec("gaussian", 3), 0.05)
        for step in steps:
            assert set(step) == {"removed_edge", "deviance_delta", "p_value"}
            assert step["p_value"] > 0.05

    def test_mid_search_failure_carries_step_context(self, monkeypatch):
        """A removal whose completion fails fails the search, naming the step
        and the edge, with the steps done and the graph they reached.  A
        candidate that is never completed can no longer fail a step."""
        import egm.inference as inf

        K0, S0 = chordless_cycle_shape(4, -0.4)
        X = sample(EllipticalModel(np.zeros(4), S0, "gaussian"), 2000, 3)
        calls = {"n": 0}
        real = inf._complete

        def flaky(*args, **kwargs):
            calls["n"] += 1
            fits = real(*args, **kwargs)
            if calls["n"] > 1:
                fits[0] = inf.ConvergenceError("injected failure", residual=0.1)
            return fits

        # one stacked completion per step: the second step's first removal fails
        monkeypatch.setattr(inf, "_complete", flaky)
        with pytest.raises(inf.ConvergenceError, match="step 2 while testing removal of edge") as exc:
            backward_elimination(X, make_spec("gaussian", 4), 0.05)
        assert isinstance(exc.value.steps, list) and len(exc.value.steps) == 1
        assert exc.value.graph.p == 4 and len(exc.value.graph.edges) == 5

    @pytest.fixture
    def completed(self, monkeypatch):
        """The size of each stack that the search hands to its completion."""
        import egm.inference as inf

        sizes, real = [], inf._complete
        monkeypatch.setattr(inf, "_complete", lambda *a, **k: sizes.append(len(a[0])) or real(*a, **k))
        return sizes

    def test_completes_at_most_a_quarter_of_the_removals(self, completed):
        K0, S0 = chordless_cycle_shape(8, -0.3)
        X = sample(EllipticalModel(np.zeros(8), S0, "gaussian"), 500, 12)
        G, steps = backward_elimination(X, make_spec("gaussian", 8), 0.05)
        # each step scores the removals of the 28 - k edges left after k steps
        removals = sum(28 - k for k in range(len(completed)))
        assert len(completed) == len(steps) + 1
        assert sum(completed) <= 0.25 * removals

    def test_without_a_positive_definite_dual_point_completes_every_removal(self, completed):
        # equicorrelated concentration 0.8 at p=5: no U - U_ij(E_ij + E_ji) is
        # positive definite, so every upper bound is inf and nothing is left out
        W = spd_inverse(0.2 * np.eye(5) + 0.8)
        Z = np.random.default_rng(5).standard_normal((400, 5))
        Z -= Z.mean(axis=0)
        X = Z @ np.linalg.inv(np.linalg.cholesky(Z.T @ Z / 400)).T @ np.linalg.cholesky(W).T
        i, j = np.triu_indices(5, 1)
        assert np.isinf(_removal_bounds(W, i, j)[1]).all()
        G, steps = backward_elimination(X, make_spec("gaussian", 5), 0.05)
        assert completed == [10] and steps == [] and G == Graph.complete(5)

    PARITY = [  # (p, shape's c, rows' family, n, estimator, sigma1, seed)
        (5, -0.3, "gaussian", 300, "gaussian", None, 1),
        (6, 0.2, "gaussian", 400, "gaussian", None, 2),
        (8, -0.3, "gaussian", 500, "gaussian", None, 3),
        (10, -0.25, "gaussian", 300, "gaussian", None, 4),
        (5, -0.3, "t:5", 300, "t:5", 1.2, 5),
        (7, 0.25, "t:5", 400, "t:5", 1.2, 6),
        (9, -0.3, "t:5", 300, "t:5", 1.2, 7),
        (10, -0.3, "t:5", 250, "t:5", 1.2, 8),
        (5, -0.4, "t:5", 300, "huber:1.345", 1.1, 9),
        (6, -0.3, "gaussian", 300, "huber:1.345", 1.05, 10),
        (8, 0.2, "t:5", 400, "huber:1.345", 1.1, 11),
        (10, -0.3, "t:3", 300, "huber:1.345", 1.1, 12),
    ]

    @pytest.mark.parametrize("p, c, family, n, estimator, sigma1, seed", PARITY)
    def test_equals_scoring_every_removal(self, p, c, family, n, estimator, sigma1, seed):
        X = sample(EllipticalModel(np.zeros(p), chordless_cycle_shape(p, c)[1], family), n, seed)
        spec = make_spec(estimator, p)
        assert (backward_elimination(X, spec, 0.05, sigma1=sigma1)
                == backward_elimination_oracle(X, spec, 0.05, sigma1=sigma1))

    @pytest.mark.parametrize("estimator", ["gaussian", "t:5"])
    def test_equals_scoring_every_removal_on_near_ties(self, estimator):
        # rows stacked with their rotations along the cycle: the removals in
        # one orbit have deviances that agree up to rounding
        K0, S0 = chordless_cycle_shape(8, -0.3)
        X = sample(EllipticalModel(np.zeros(8), S0, "gaussian"), 60, 13)
        X = np.vstack([np.roll(X, k, axis=1) for k in range(8)])
        spec = make_spec(estimator, 8)
        # at the complete graph the lower bounds are the deviances: four or more tie
        i, j = np.triu_indices(8, 1)
        first = np.sort(_removal_bounds(m_estimate(X, spec).scatter, i, j)[0])
        assert first[3] - first[0] <= 1e-9 * first[0]
        assert (backward_elimination(X, spec, 0.05, sigma1=1.0)
                == backward_elimination_oracle(X, spec, 0.05, sigma1=1.0))


class TestRemovalBounds:
    """The search's bounds on the log-det gain of each single-edge removal."""

    @staticmethod
    def gains(A, graph, tol=1e-12):
        """Completion W of A under ``graph``, its edges and each removal's exact gain."""
        W = _complete(A[None], build_index(graph).k_mask, tol)[0].matrix
        edges = graph.sorted_edges()
        masks = np.repeat(build_index(graph).k_mask[None], len(edges), axis=0)
        for r, (a, b) in enumerate(edges):
            masks[r, a - 1, b - 1] = masks[r, b - 1, a - 1] = False
        fits = _complete(np.broadcast_to(A, masks.shape), masks, tol)
        return W, np.array(edges).T - 1, (_cholesky_logdet(np.array([f.matrix for f in fits]))
                                          - _cholesky_logdet(W[None])[0])

    @settings(max_examples=200)
    @given(p=st.integers(4, 10), seed=st.integers(0, 2**32 - 1),
           spread=st.sampled_from([0.5, 1.0, 3.0]), density=st.sampled_from([0.4, 0.7, 1.0]))
    def test_bracket_the_exact_gain(self, p, seed, spread, density):
        rng = np.random.default_rng(seed)
        A, graph = rand_spd(p, rng, spread), random_graph(p, rng, density)
        assume(graph.edges)
        W, (i, j), exact = self.gains(A, graph)
        lower, upper, _ = _removal_bounds(W, i, j)
        slack = 1e-10 * (1.0 + np.abs(exact))
        assert np.all(lower <= exact + slack)
        assert np.all(exact <= upper + slack)

    @pytest.mark.parametrize("p", [4, 7, 10])
    def test_lower_bound_is_exact_at_the_complete_graph(self, p):
        # partial correlations of size 0.05-0.1 keep every gain far above the
        # rounding of a log det, so that the gains compare relatively
        rng = np.random.default_rng(p)
        K = np.triu(rng.choice([-1.0, 1.0], (p, p)) * rng.uniform(0.05, 0.1, (p, p)), 1)
        d = rng.uniform(0.5, 2.0, p)
        A = spd_inverse(d[:, None] * (np.eye(p) + K + K.T) * d)
        W, (i, j), exact = self.gains(A, Graph.complete(p))
        lower, upper, _ = _removal_bounds(W, i, j)
        assert np.allclose(lower, exact, rtol=1e-10, atol=0)
        assert np.all(exact <= upper)


class TestPartialCorrelation:
    def test_identity(self):
        assert np.array_equal(partial_correlation(np.eye(4)), -np.eye(4))

    def test_two_by_two_formula(self):
        c = 0.37
        K = np.array([[1.0, -c], [-c, 1.0]])
        P = partial_correlation(K)
        assert np.isclose(P[0, 1], c, atol=1e-15)
        assert np.allclose(np.diag(P), -1.0, atol=0)

    def test_regression_residual_oracle_p3(self):
        K = spd_inverse(rand_spd(3, rng))
        Sigma = spd_inverse(K)
        P = partial_correlation(K)
        # residual correlation of (0, 1) after projecting out component 2
        a = Sigma[0, 2] / Sigma[2, 2]
        b = Sigma[1, 2] / Sigma[2, 2]
        v0 = Sigma[0, 0] - a * Sigma[0, 2]
        v1 = Sigma[1, 1] - b * Sigma[1, 2]
        c01 = Sigma[0, 1] - a * Sigma[1, 2]
        assert abs(P[0, 1] - c01 / np.sqrt(v0 * v1)) <= 1e-10

    def test_scale_invariance(self):
        K = spd_inverse(rand_spd(5, rng))
        d = np.exp(rng.uniform(-1, 1, 5))
        D = np.diag(d)
        assert np.max(np.abs(partial_correlation(D @ K @ D) - partial_correlation(K))) <= 1e-12

    def test_non_positive_diagonal(self):
        K = np.eye(3)
        K[1, 1] = 0.0
        with pytest.raises(DefinitenessError):
            partial_correlation(K)


class TestPartialCorrelationDerivative:
    def test_matches_finite_differences(self):
        local = np.random.default_rng(8)
        A = rand_spd(4, local)
        J = partial_correlation_derivative(A)
        for _ in range(5):
            E = random_symmetric_direction(4, local)
            fd = fd_directional(partial_correlation, A, E)
            JE = mat(J @ vec(E), 4)
            assert np.linalg.norm(fd - JE, "fro") / np.linalg.norm(JE, "fro") <= 1e-5

    def test_identity_point_off_diagonal(self):
        p = 4
        J = partial_correlation_derivative(np.eye(p))
        E = random_symmetric_direction(p, rng)
        np.fill_diagonal(E, 0.0)
        assert np.allclose(J @ vec(E), -vec(E), atol=1e-12)

    def test_row_space_symmetric(self):
        A = rand_spd(4, rng)
        J = partial_correlation_derivative(A)
        Kp = commutation_matrix(4)
        assert np.max(np.abs(J @ Kp - J)) <= 1e-12

    def test_matches_kronecker_reference(self):
        # -(M_p (Pi x A_D^-1)) restricted to diagonal columns - (A_D^-1/2 x A_D^-1/2) M_p
        local = np.random.default_rng(17)
        for p in range(3, 9):
            A = rand_spd(p, local)
            d = np.diag(A)
            Mp = symmetrization_matrix(p)
            on_diag = np.zeros(p * p)
            on_diag[np.arange(p) * (p + 1)] = 1.0
            ref = (-(Mp @ kron(partial_correlation(A), np.diag(1.0 / d))) * on_diag
                   - kron(np.diag(d ** -0.5), np.diag(d ** -0.5)) @ Mp)
            assert np.max(np.abs(partial_correlation_derivative(A) - ref)) <= 1e-15

    def test_closed_form_row_matches_dense(self):
        from egm.inference import _dpi_row_matrix

        A = rand_spd(5, rng)
        J = partial_correlation_derivative(A)
        for (i, j) in [(1, 2), (3, 5), (2, 4)]:
            r = (j - 1) * 5 + (i - 1)
            assert np.allclose(vec(_dpi_row_matrix(A, i - 1, j - 1)), J[r], atol=1e-12)


class TestChordlessCycleShape:
    def test_zero_correlation(self):
        K, S = chordless_cycle_shape(5, 0.0)
        assert np.array_equal(K, np.eye(5))
        assert np.allclose(S, np.eye(5), atol=1e-14)

    def test_partial_correlations_equal_c(self):
        p, c = 7, -0.3
        K, S = chordless_cycle_shape(p, c)
        P = partial_correlation(K)
        G = Graph.cycle(p)
        for i in range(1, p + 1):
            for j in range(i + 1, p + 1):
                expected = c if G.has_edge(i, j) else 0.0
                assert abs(P[i - 1, j - 1] - expected) <= 1e-14

    def test_circulant_eigenvalues(self):
        p, c = 6, -0.35
        K, _ = chordless_cycle_shape(p, c)
        expected = np.sort(1.0 - 2.0 * c * np.cos(2.0 * np.pi * np.arange(p) / p))
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(K)) - expected)) <= 1e-10

    def test_definiteness_guard(self):
        with pytest.raises(DefinitenessError):
            chordless_cycle_shape(5, 0.5)

    def test_needs_p_at_least_4(self):
        with pytest.raises(PreconditionError):
            chordless_cycle_shape(3, 0.2)


class TestAsvPartialCorrelation:
    def test_complete_graph_matches_unconstrained(self):
        V = rand_spd(4, rng)
        idx = build_index(Graph.complete(4))
        a = asv_partial_correlation(V, None, UNIT, (1, 2))
        b = asv_partial_correlation(V, idx, UNIT, (1, 2))
        assert abs(a - b) <= 1e-10 * max(1.0, a)

    def test_sigma1_scales_linearly(self):
        K, S = chordless_cycle_shape(5, -0.3)
        idx = build_index(Graph.cycle(5))
        for index in (None, idx):
            a1 = asv_partial_correlation(S, index, AsymptoticScalars(1.0, 0.0), (1, 2))
            a2 = asv_partial_correlation(S, index, AsymptoticScalars(2.5, 0.0), (1, 2))
            assert np.isclose(a2, 2.5 * a1, rtol=1e-12)

    def test_pattern_precondition(self):
        V = rand_spd(5, np.random.default_rng(4))
        with pytest.raises(PreconditionError):
            asv_partial_correlation(V, build_index(Graph.cycle(5)), UNIT, (1, 2))

    def test_position_validation(self):
        with pytest.raises(DimensionError):
            asv_partial_correlation(np.eye(3), None, UNIT, (2, 2))

    def test_delta_method_oracle_unconstrained(self):
        # push the inverse-scatter covariance through the dense derivative
        V = rand_spd(4, np.random.default_rng(12))
        K = spd_inverse(V)
        J = partial_correlation_derivative(K)
        from egm.linops import kron

        W = 2.0 * UNIT.sigma1 * (J @ kron(K, K) @ J.T)
        r = (2 - 1) * 4 + (1 - 1)  # vec index of entry (1, 2)
        assert abs(asv_partial_correlation(V, None, UNIT, (1, 2)) - W[r, r]) <= 1e-10

    @settings(max_examples=60)
    @given(p=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
           density=st.sampled_from([0.3, 0.6, 1.0]), sigma1=st.sampled_from([0.4, 1.0, 2.5]),
           data=st.data())
    def test_stack_of_one_keeps_the_bits_of_the_2d_path(self, p, seed, density, sigma1, data):
        local = np.random.default_rng(seed)
        index = build_index(random_graph(p, local, density))
        V = rand_spd(p, local)
        VG = _complete(V[None], index.k_mask, 1e-12)[0].matrix  # carries the zero pattern
        i, j = data.draw(st.permutations(range(1, p + 1)))[:2]
        s = AsymptoticScalars(sigma1, 0.0)
        for M, idx in ((V, None), (VG, None), (VG, index)):
            got = asv_partial_correlation(M, idx, s, (i, j))
            assert got.hex() == asv_oracle(M, idx, sigma1, (i, j)).hex()


class TestAreChordlessCycle:
    def test_reference_cells(self):
        assert round(are_chordless_cycle(7, -0.3).are, 2) == 1.23
        assert round(are_chordless_cycle(5, -0.49).are, 2) == 2.27
        assert round(are_chordless_cycle(4, -0.49).are, 2) == 1.48
        assert round(are_chordless_cycle(50, -0.49).are, 2) == 2.36

    def test_zero_c_is_one(self):
        for p in (4, 9, 20):
            assert round(are_chordless_cycle(p, 0.0).are, 2) == 1.00

    def test_grid_at_least_one(self):
        for p in [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 20, 30, 50]:
            for c in [0.0, -0.05, -0.1, -0.2, -0.3, -0.4, -0.49]:
                r = are_chordless_cycle(p, c)
                assert r.are >= 1.0 - 1e-10
                assert np.isclose(r.are, r.asv_unconstrained / r.asv_constrained, rtol=1e-14)

    def test_scale_free(self):
        p, c = 6, -0.3
        K, S = chordless_cycle_shape(p, c)
        idx = build_index(Graph.cycle(p))
        a = (asv_partial_correlation(S, None, UNIT, (1, 2))
             / asv_partial_correlation(S, idx, UNIT, (1, 2)))
        b = (asv_partial_correlation(7.3 * S, None, UNIT, (1, 2))
             / asv_partial_correlation(7.3 * S, idx, UNIT, (1, 2)))
        assert abs(a - b) <= 1e-10

    @staticmethod
    def bits(r):
        return (r.p, r.c) + tuple(x.hex() for x in (r.asv_unconstrained, r.asv_constrained, r.are))

    def test_table_kernel_keeps_every_cell_bit_for_bit(self):
        # the 91 default cells, one kernel call per p, and off-grid cells
        cs = [0.0, -0.05, -0.1, -0.2, -0.3, -0.4, -0.49]
        for p, c_list in [(p, cs) for p in (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 20, 30, 50)] + [
                (60, cs), (5, [0.0, 0.45, -0.499]), (60, [0.0, 0.45, -0.499]), (4, [-0.3])]:
            want = [self.bits(are_cell_oracle(p, c)) for c in c_list]
            assert [self.bits(r) for r in _are_cycle_table(p, c_list)] == want
            assert [self.bits(are_chordless_cycle(p, c)) for c in c_list] == want

    @pytest.mark.parametrize("p, cs, error", [
        (3, [0.1], PreconditionError), (5, [0.1, 0.6], DefinitenessError),
        (5, [0.1, -0.5], DefinitenessError), (6, [float("nan")], DefinitenessError),
        (3, [0.6], PreconditionError)])
    def test_table_kernel_checks_every_cell_before_it_computes(self, monkeypatch, p, cs, error):
        def forbidden(*args, **kwargs):
            raise AssertionError("computed before every cell was checked")

        monkeypatch.setattr(inference, "spd_inverse", forbidden)
        monkeypatch.setattr(inference, "build_index", forbidden)
        with pytest.raises(error) as exc:
            _are_cycle_table(p, cs)
        with pytest.raises(error) as cell:
            for c in cs:
                are_cell_oracle(p, c)
        assert str(exc.value) == str(cell.value)

    def test_same_at_every_cycle_edge(self):
        p, c = 7, -0.35
        K, S = chordless_cycle_shape(p, c)
        idx = build_index(Graph.cycle(p))
        base = (asv_partial_correlation(S, None, UNIT, (1, 2))
                / asv_partial_correlation(S, idx, UNIT, (1, 2)))
        for e in Graph.cycle(p).sorted_edges():
            r = (asv_partial_correlation(S, None, UNIT, e)
                 / asv_partial_correlation(S, idx, UNIT, e))
            assert abs(r - base) <= 1e-10
