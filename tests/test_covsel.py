import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from egm import covsel
from egm.covsel import (
    AsymptoticScalars,
    _complete,
    _derivative_block,
    _newton,
    concentration_acov,
    constrain_jacobian,
    constrain_scatter,
    constrained_scatter_acov,
    edge_basis_gram,
    pattern_violation,
    scatter_acov,
)
from egm.errors import ConvergenceError, DefinitenessError, DimensionError, PreconditionError
from egm.graphs import Graph, build_index
from egm.inference import are_chordless_cycle, backward_elimination, chordless_cycle_shape, deviance
from egm.linops import (
    commutation_matrix,
    duplication_matrix,
    kron,
    mat,
    spd_inverse,
    symmetrization_matrix,
    vec,
)
from egm.mest import make_spec

from _oracles import (
    Q_D,
    Q_K,
    fd_directional,
    general_acov_oracle,
    hg_optimization_oracle,
    jacobian_oracle,
    rand_spd,
    random_graph,
    random_symmetric_direction,
)

rng = np.random.default_rng(2024)

CYCLE4 = build_index(Graph.cycle(4))
EQUICORR4 = np.eye(4) + 0.3 * (np.ones((4, 4)) - np.eye(4))

# By the circulant symmetry of the equicorrelated 4-cycle instance, the
# completed (1,3)/(2,4) entry solves x^2 + x - 0.18 = 0.
EQUICORR4_FILL = (np.sqrt(1.72) - 1.0) / 2.0


class TestConstrainScatter:
    def test_complete_graph_identity(self):
        A = rand_spd(5, rng)
        fit = constrain_scatter(A, build_index(Graph.complete(5)))
        assert np.array_equal(fit.matrix, A)
        assert fit.residual == 0.0

    def test_fixed_point_when_pattern_holds(self):
        K, S = chordless_cycle_shape(5, -0.35)
        fit = constrain_scatter(S, build_index(Graph.cycle(5)), tol=1e-12)
        assert np.max(np.abs(fit.matrix - S)) < 1e-11

    def test_equicorrelated_cycle_against_frozen_value(self):
        fit = constrain_scatter(EQUICORR4, CYCLE4, tol=1e-12)
        expected = EQUICORR4.copy()
        expected[0, 2] = expected[2, 0] = EQUICORR4_FILL
        expected[1, 3] = expected[3, 1] = EQUICORR4_FILL
        assert np.max(np.abs(fit.matrix - expected)) < 1e-10

    def test_equicorrelated_cycle_against_optimizer(self):
        fit = constrain_scatter(EQUICORR4, CYCLE4, tol=1e-12)
        oracle = hg_optimization_oracle(EQUICORR4, CYCLE4)
        assert np.linalg.norm(fit.matrix - oracle, "fro") <= 1e-6

    def test_random_instances_match_optimizer(self):
        local = np.random.default_rng(77)
        for _ in range(8):
            p = int(local.integers(4, 8))
            index = build_index(random_graph(p, local))
            A = rand_spd(p, local)
            fit = constrain_scatter(A, index, tol=1e-12)
            assert fit.residual <= 1e-12
            oracle = hg_optimization_oracle(A, index)
            assert np.linalg.norm(fit.matrix - oracle, "fro") <= 1e-6

    def test_conditions_hold(self):
        index = build_index(Graph.cycle(6))
        A = rand_spd(6, rng)
        fit = constrain_scatter(A, index, tol=1e-11)
        K = spd_inverse(fit.matrix)
        assert np.max(np.abs((fit.matrix - A)[index.k_mask])) <= 1e-11
        assert np.max(np.abs(K[index.d_mask])) <= 1e-9

    def test_idempotent(self):
        local = np.random.default_rng(31)
        for _ in range(10):
            p = int(local.integers(2, 9))
            index = build_index(random_graph(p, local))
            A = rand_spd(p, local)
            once = constrain_scatter(A, index, tol=1e-11).matrix
            twice = constrain_scatter(once, index, tol=1e-11).matrix
            assert np.max(np.abs(twice - once)) <= 1e-8

    def test_diagonal_congruence_equivariance(self):
        local = np.random.default_rng(32)
        for _ in range(10):
            p = int(local.integers(2, 9))
            index = build_index(random_graph(p, local))
            A = rand_spd(p, local)
            d = np.exp(local.uniform(-1, 1, p))
            D = np.diag(d)
            left = constrain_scatter(D @ A @ D, index, tol=1e-12).matrix
            right = D @ constrain_scatter(A, index, tol=1e-12).matrix @ D
            assert np.max(np.abs(left - right)) <= 1e-8

    def test_residual_history_non_increasing(self):
        local = np.random.default_rng(33)
        for _ in range(20):
            p = int(local.integers(4, 9))
            index = build_index(random_graph(p, local))
            A = rand_spd(p, local)
            fit = constrain_scatter(A, index, tol=1e-11)
            diffs = np.diff(fit.residual_history)
            assert np.all(diffs <= 1e-12)

    def test_empty_graph_keeps_diagonal(self):
        A = rand_spd(5, np.random.default_rng(15))
        fit = constrain_scatter(A, build_index(Graph.empty(5)), tol=1e-12)
        assert np.max(np.abs(fit.matrix - np.diag(np.diag(A)))) <= 1e-12

    def test_condition_warning_flagged(self):
        A = np.diag([1.0, 1e-13, 1.0, 1.0])
        A[0, 2] = A[2, 0] = 0.3
        with pytest.warns(RuntimeWarning, match="condition"):
            fit = constrain_scatter(A, CYCLE4, tol=1e-6)
        assert fit.condition_warning

    def test_rejects_non_spd(self):
        A = np.eye(4)
        A[0, 0] = -1.0
        with pytest.raises(DefinitenessError):
            constrain_scatter(A, CYCLE4)

    def test_convergence_error_carries_residual(self):
        K, S = chordless_cycle_shape(6, -0.49)
        A = rand_spd(6, np.random.default_rng(9)) + 5 * S
        with pytest.raises(ConvergenceError) as exc:
            constrain_scatter(A, build_index(Graph.cycle(6)), tol=1e-15, max_iter=1)
        assert exc.value.residual is not None and exc.value.residual > 1e-15

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_tolerance_not_finite_and_positive_rejected(self, tol):
        with pytest.raises(PreconditionError, match="tol must be finite and > 0"):
            constrain_scatter(rand_spd(4, np.random.default_rng(8)), CYCLE4, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1, 2.5, True])
    def test_budget_below_one_sweep_rejected(self, max_iter):
        K, S = chordless_cycle_shape(6, -0.49)
        A = rand_spd(6, np.random.default_rng(9)) + 5 * S
        with pytest.raises(PreconditionError, match="at least one step"):
            constrain_scatter(A, build_index(Graph.cycle(6)), max_iter=max_iter)


class TestStackedCompletion:
    """The completion kernel completes a stack slice by slice, bit for bit as alone."""

    GRAPH = build_index(Graph.cycle(6).with_edge(1, 4))

    def inputs(self, local):
        A = [rand_spd(6, local) for _ in range(4)]
        A.append(constrain_scatter(A[0], self.GRAPH, tol=1e-13).matrix)  # compliant
        return np.array(A)

    def test_stack_equals_single_calls(self):
        A = self.inputs(np.random.default_rng(41))
        for fit, a in zip(_complete(A, self.GRAPH.k_mask, 1e-10), A):
            alone = constrain_scatter(a, self.GRAPH)
            assert np.array_equal(fit.matrix, alone.matrix)
            assert fit.iterations == alone.iterations
            assert fit.residual_history == alone.residual_history
        assert fit.iterations == 0

    @staticmethod
    def ill_conditioned(seed):
        # Q diag(10^u) Q^T, u uniform on (-17, 0): at seeds 1845 and 1816 the 5-cycle
        # completion meets a singular Newton system and an iterate without a factor
        local = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(local.standard_normal((5, 5)))
        A = (Q * 10.0 ** local.uniform(-17, 0, 5)) @ Q.T
        return 0.5 * (A + A.T)

    def test_lost_definiteness_is_isolated(self):
        cycle = build_index(Graph.cycle(5))
        A = np.array([rand_spd(5, np.random.default_rng(3)), self.ill_conditioned(1845),
                      rand_spd(5, np.random.default_rng(4)), self.ill_conditioned(1816)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", "input matrix has condition number", RuntimeWarning)
            stacked = _complete(A, cycle.k_mask, 1e-10)
        causes = []
        for out, a in zip(stacked, A):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    alone = constrain_scatter(a, cycle)
                except ConvergenceError as exc:
                    assert type(out) is ConvergenceError and str(out) == str(exc)
                    assert type(out.__cause__) is type(exc.__cause__)
                    causes.append((type(out.__cause__), str(out.__cause__)))
                    continue
            assert np.array_equal(out.matrix, alone.matrix)
            assert out.residual_history == alone.residual_history
        assert causes == [(np.linalg.LinAlgError, "Singular matrix"),
                          (DefinitenessError, "matrix is not positive definite")]

    def test_per_slice_tolerance_and_start(self):
        local = np.random.default_rng(42)
        A = self.inputs(local)[:4]
        W0 = np.array([rand_spd(6, local) for _ in A])
        tols = np.array([1e-4, 1e-7, 1e-10, 1e-13])
        W, history, errors = _newton(A, self.GRAPH.k_mask, tols, start=W0)
        assert not errors
        for r in range(len(A)):
            W1, h1, e1 = _newton(A[r:r + 1], self.GRAPH.k_mask, tols[r], start=W0[r:r + 1])
            assert np.array_equal(W[r], W1[0])
            assert history[r] == h1[0]
        assert len(history[0]) < len(history[3])

    def test_sweep_budget_is_per_slice(self):
        A = self.inputs(np.random.default_rng(43))[:4]
        tols = np.array([1e-2, 1e-13, 1e-2, 1e-13])
        _, history, errors = _newton(A, self.GRAPH.k_mask, tols, max_iter=4)
        assert sorted(errors) == [1, 3]
        for r in (1, 3):
            with pytest.raises(ConvergenceError) as exc:
                constrain_scatter(A[r], self.GRAPH, tol=1e-13, max_iter=4)
            assert str(errors[r]) == str(exc.value)
            assert errors[r].residual == exc.value.residual == history[r][-1]

    MIXED = [build_index(G) for G in (Graph.cycle(6).with_edge(1, 4), Graph.cycle(6),
                                      Graph.from_edges(6, [(1, 2), (2, 3), (4, 5)]),
                                      Graph.complete(6), Graph.cycle(6).with_edge(2, 5))]

    def test_mixed_graphs_equal_one_graph_calls(self):
        local = np.random.default_rng(44)
        A = np.array([rand_spd(6, local, spread=2.0) for _ in self.MIXED])
        masks = np.array([idx.k_mask for idx in self.MIXED])
        for fit, a, idx in zip(_complete(A, masks, 1e-10), A, self.MIXED):
            alone = constrain_scatter(a, idx)
            assert np.array_equal(fit.matrix, alone.matrix)
            assert fit.residual_history == alone.residual_history
        # per-slice tolerances and one budget that some slices exhaust
        tols = np.array([1e-3, 1e-14, 1e-8, 1e-14, 1e-15])
        W0 = np.array([rand_spd(6, local) for _ in A])
        W, history, errors = _newton(A, masks, tols, max_iter=4, start=W0)
        assert errors and len(errors) < len(A)
        for r in range(len(A)):
            W1, h1, e1 = _newton(A[r:r + 1], masks[r], tols[r], max_iter=4, start=W0[r:r + 1])
            assert np.array_equal(W[r], W1[0])
            assert history[r] == h1[0]
            assert (r in errors) == bool(e1)
            if e1:
                assert str(errors[r]) == str(e1[0]) and errors[r].residual == e1[0].residual

    def test_iterative_steps_keep_the_bits(self, monkeypatch):
        # every Newton system solved by conjugate gradients
        monkeypatch.setattr(covsel, "_DENSE_MAX", 0)
        self.test_stack_equals_single_calls()
        self.test_per_slice_tolerance_and_start()
        self.test_mixed_graphs_equal_one_graph_calls()

    def test_iterative_steps_agree_with_direct_solves(self, monkeypatch):
        local = np.random.default_rng(47)
        A = np.array([rand_spd(6, local, spread=2.0) for _ in self.MIXED])
        masks = np.array([idx.k_mask for idx in self.MIXED])
        direct = _complete(A, masks, 1e-12)
        monkeypatch.setattr(covsel, "_DENSE_MAX", 0)
        for fit, ref in zip(_complete(A, masks, 1e-12), direct):
            assert fit.residual <= 1e-12
            assert np.max(np.abs(fit.matrix - ref.matrix)) <= 1e-12 * np.max(np.abs(ref.matrix))

    def test_blocked_direct_solves_keep_the_bits(self, monkeypatch):
        # search-step candidates with 63 free entries on the dual side: 66
        # slices fill a block of 2^18 entries
        local = np.random.default_rng(49)
        pairs = [(i, j) for i in range(1, 17) for j in range(i + 1, 17)]
        G = Graph.from_edges(16, [pairs[k] for k in local.permutation(120)[:58]])
        graphs = [build_index(G.without_edge(*e)) for e in G.sorted_edges()]
        graphs = [graphs[r % len(graphs)] for r in range(70)]
        A = np.array([rand_spd(16, local) for _ in graphs])
        blocks = []
        pair = covsel._pair
        monkeypatch.setattr(covsel, "_pair", lambda T, rows, cols: blocks.append(len(T)) or pair(T, rows, cols))
        fits = _complete(A, np.array([idx.k_mask for idx in graphs]), 1e-10)
        assert blocks[:2] == [66, 4]
        for fit, a, idx in zip(fits, A, graphs):
            alone = constrain_scatter(a, idx)
            assert np.array_equal(fit.matrix, alone.matrix)
            assert fit.residual_history == alone.residual_history

    def test_cocktail_party_graph(self):
        # K_24 minus a perfect matching has 2^12 = 4096 maximal cliques
        p = 24
        G = Graph.from_edges(p, [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)
                                 if not (i % 2 == 1 and j == i + 1)])
        idx = build_index(G)
        A = rand_spd(p, np.random.default_rng(45))
        start = time.perf_counter()
        fit = constrain_scatter(A, idx)
        elapsed = time.perf_counter() - start
        assert np.max(np.abs((fit.matrix - A)[idx.k_mask])) <= 1e-10
        assert np.max(np.abs(np.linalg.inv(fit.matrix)[idx.d_mask])) <= 1e-10
        assert elapsed <= 0.5


class TestNewtonSteps:
    """One kernel inverse per Newton step, so the inverses count the steps."""

    @pytest.mark.parametrize("p", [30, 50])
    def test_strongly_correlated_long_cycle(self, monkeypatch, p):
        # AR(0.9) sample scatters from 3p rows: node-wise sweeps took 218 (p=30)
        # and 469 (p=50) here
        lag = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        X = np.random.default_rng(0).standard_normal((3 * p, p)) @ np.linalg.cholesky(0.9 ** lag).T
        X -= X.mean(axis=0)
        A = X.T @ X / len(X)
        calls = []
        inverse = covsel.spd_inverse
        monkeypatch.setattr(covsel, "spd_inverse", lambda M: calls.append(1) or inverse(M))
        fit = constrain_scatter(A, build_index(Graph.cycle(p)))
        assert fit.residual <= 1e-10
        assert len(calls) <= 40


class TestIterativeNewtonSystems:
    """Beyond covsel._DENSE_MAX free entries no step forms its Hessian."""

    def test_half_dense_graph_forms_no_large_block(self, monkeypatch):
        # p=40 with about half the edges: q and p + |E| both near 400, where a
        # dense Hessian per step is a 400 x 400 block
        local = np.random.default_rng(48)
        p = 40
        G = Graph.from_edges(p, [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)
                                 if local.random() < 0.5])
        idx = build_index(G)
        A = rand_spd(p, local)
        sizes = []
        pair = covsel._pair
        monkeypatch.setattr(covsel, "_pair", lambda T, rows, cols: sizes.append(
            np.shape(rows[0])[-1] * np.shape(cols[0])[-1]) or pair(T, rows, cols))
        fit = constrain_scatter(A, idx)
        assert min(idx.q, p + len(G.edges)) > covsel._DENSE_MAX
        assert max(sizes, default=0) <= covsel._DENSE_MAX ** 2
        assert np.max(np.abs((fit.matrix - A)[idx.k_mask])) <= 1e-10
        assert np.max(np.abs(np.linalg.inv(fit.matrix)[idx.d_mask])) <= 1e-10


class TestInputChecks:
    UNIT = AsymptoticScalars(1.0, 0.0)

    @pytest.mark.parametrize("call", [
        lambda V, idx: pattern_violation(V, idx),
        lambda V, idx: constrained_scatter_acov(V, idx, TestInputChecks.UNIT),
        lambda V, idx: concentration_acov(V, idx, TestInputChecks.UNIT),
    ])
    def test_dimension_mismatch_is_typed(self, call):
        with pytest.raises(DimensionError, match="graph has p=5 but V is 4x4"):
            call(EQUICORR4, build_index(Graph.cycle(5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [
        lambda V: constrain_scatter(V, CYCLE4),
        lambda V: constrained_scatter_acov(V, CYCLE4, TestInputChecks.UNIT),
    ])
    def test_non_finite_entry_named(self, call, bad):
        V = EQUICORR4.copy()
        V[2, 1] = bad
        with pytest.raises(PreconditionError, match="non-finite value at row 3, column 2"):
            call(V)


class TestConstrainJacobian:
    def test_complete_graph_is_symmetrizer(self):
        A = rand_spd(4, rng)
        J = constrain_jacobian(A, build_index(Graph.complete(4)))
        assert np.array_equal(J, symmetrization_matrix(4))

    def test_matches_finite_differences(self):
        local = np.random.default_rng(41)
        A = rand_spd(4, local)
        J = constrain_jacobian(A, CYCLE4)
        fn = lambda M: constrain_scatter(M, CYCLE4, tol=1e-13).matrix
        for _ in range(5):
            E = random_symmetric_direction(4, local)
            fd = fd_directional(fn, A, E)
            JE = mat(J @ vec(E), 4)
            assert np.linalg.norm(fd - JE, "fro") / np.linalg.norm(JE, "fro") <= 1e-5

    def test_idempotent_at_pattern_point(self):
        K, S = chordless_cycle_shape(5, -0.3)
        J = constrain_jacobian(S, build_index(Graph.cycle(5)))
        assert np.max(np.abs(J @ J - J)) <= 1e-8

    def test_reflects_symmetry(self):
        A = rand_spd(5, rng)
        index = build_index(Graph.cycle(5))
        J = constrain_jacobian(A, index)
        Kp = commutation_matrix(5)
        assert np.max(np.abs(J @ Kp - J)) <= 1e-10
        assert np.max(np.abs(Kp @ J - J)) <= 1e-10

    def test_reduced_symmetrizer_variant_agrees(self):
        # The derivative can equivalently be written with the masked
        # symmetrizer that zeroes every non-edge row and column; the two
        # forms must produce the same matrix.
        A = rand_spd(4, rng)
        index = CYCLE4
        p = 4
        fit = constrain_scatter(A, index, tol=1e-12)
        U = spd_inverse(fit.matrix)
        Mp = symmetrization_matrix(p)
        Dp, Dp_plus = duplication_matrix(p)
        QtK = Q_K(index) @ Dp  # selects K from v(A)
        MpG = Dp @ QtK.T @ QtK @ Dp_plus
        UU = kron(U, U)
        QD = Q_D(index)
        B = QD @ UU @ Mp @ QD.T
        variant = MpG - Mp @ QD.T @ np.linalg.solve(B, QD @ UU @ MpG)
        assert np.max(np.abs(variant - constrain_jacobian(A, index))) <= 1e-9


    def test_indefinite_constraint_system_is_typed(self):
        # U = diag(1, -1, 1, 1) makes B = diag(1/2, -1/2) on the 4-cycle's absent edges
        with pytest.raises(DefinitenessError, match="constraint system"):
            _derivative_block(np.diag([1.0, -1.0, 1.0, 1.0]), CYCLE4)


class TestConditionWarning:
    """The constraint system's condition warning against its eigenvalues,
    whether the bounds from its factor decide or straddle 1e12."""

    # on the 4-cycle, U = diag(1, 1, c, 1) makes B = diag(c, 1) / 2 with bounds [c, c + 1];
    # on 6 isolated nodes, U = diag(1, ..., 1, t) makes B = diag(1 (x10), t (x5)) / 2 with
    # bounds [1/t, 10 + 5/t], which straddle 1e12 at 1/t = 3e11 and 1.5e12
    CASES = {
        "well": (4, Graph.cycle(4).edges, [1.0, 1.0, 1e9, 1.0], False, False),
        "far above": (4, Graph.cycle(4).edges, [1.0, 1.0, 1e14, 1.0], True, False),
        "just below": (4, Graph.cycle(4).edges, [1.0, 1.0, 0.99e12, 1.0], False, True),
        "just above": (4, Graph.cycle(4).edges, [1.0, 1.0, 1.01e12, 1.0], True, True),
        "loose below": (6, [], [1.0] * 5 + [1 / 3e11], False, True),
        "loose above": (6, [], [1.0] * 5 + [1 / 1.5e12], True, True),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_warning_follows_the_eigenvalues(self, case, monkeypatch):
        p, edges, u, warn, exact = self.CASES[case]
        index, U = build_index(Graph.from_edges(p, edges)), np.diag(u)
        eigs = np.linalg.eigvalsh(Q_D(index) @ symmetrization_matrix(p) @ kron(U, U) @ Q_D(index).T)
        assert (eigs[-1] / eigs[0] > covsel.COND_WARN) == warn
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda B: calls.append(B) or eigvalsh(B))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            _derivative_block(U, index)
        assert [str(w.message) for w in seen] == ["constraint system is ill-conditioned"] * warn
        assert len(calls) == exact

    def test_rotated_input_warns_like_its_eigenvalues(self):
        index = build_index(Graph.cycle(6))
        Q = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 6)))[0]
        for scale, warn in ((1e3, False), (1e12, False), (1e14, True)):
            U = Q @ np.diag(np.geomspace(1.0, scale, 6)) @ Q.T
            eigs = np.linalg.eigvalsh(Q_D(index) @ symmetrization_matrix(6) @ kron(U, U)
                                      @ Q_D(index).T)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                _derivative_block(U, index)
            assert bool(seen) == (eigs[-1] / eigs[0] > covsel.COND_WARN) == warn

    @pytest.mark.parametrize("U", [np.diag([1.0, -1.0, 1.0, 1.0]), np.diag([1.0, np.nan, 1.0, 1.0]),
                                   np.diag([1.0, 1.0, np.inf, 1.0]), np.full((4, 4), -np.inf)])
    def test_indefinite_or_non_finite_system_is_typed(self, U):
        with pytest.raises(DefinitenessError, match="constraint system is not positive definite"):
            _derivative_block(U, CYCLE4)


class TestAssemblyOracle:
    """J and the general-form covariance against the reference that fills
    every row and column from an LU solve of the constraint system."""

    @pytest.mark.parametrize("p", [5, 8, 12, 30])
    def test_match_the_full_assembly(self, p):
        local = np.random.default_rng(100 + p)
        s = AsymptoticScalars(1.4, 0.2)
        for graph in (Graph.cycle(p), random_graph(p, local, 0.3), random_graph(p, local, 0.7)):
            index, V = build_index(graph), rand_spd(p, local)
            J, W = constrain_jacobian(V, index), constrained_scatter_acov(V, index, s, form="general")
            J_ref, W_ref = jacobian_oracle(V, index), general_acov_oracle(V, index, s)
            assert np.max(np.abs(J - J_ref)) <= 1e-15 * np.max(np.abs(J_ref))
            assert np.max(np.abs(W - W_ref)) <= 1e-15 * np.max(np.abs(W_ref))
            assert np.array_equal(W, W.T)


class TestDenseReference:
    """The assembled derivative and general-form covariance against their
    dense Kronecker formulas."""

    @pytest.mark.parametrize("p", [5, 8])
    def test_match_the_kronecker_formulas(self, p):
        local = np.random.default_rng(p)
        s = AsymptoticScalars(1.4, 0.2)
        for graph in (Graph.cycle(p), random_graph(p, local, 0.4)):
            index, V = build_index(graph), rand_spd(p, local)
            VG = constrain_scatter(V, index, tol=1e-12).matrix
            UU, Mp, QD = kron(spd_inverse(VG), spd_inverse(VG)), symmetrization_matrix(p), Q_D(index)
            J = Mp - Mp @ QD.T @ np.linalg.solve(QD @ Mp @ UU @ QD.T, QD @ UU @ Mp)
            W = 2.0 * s.sigma1 * J @ kron(V, V) @ J.T + s.sigma2 * np.outer(vec(VG), vec(VG))
            got_J = constrain_jacobian(V, index)
            got_W = constrained_scatter_acov(V, index, s, form="general")
            assert np.max(np.abs(got_J - J)) <= 1e-13 * np.max(np.abs(J))
            assert np.max(np.abs(got_W - W)) <= 1e-13 * np.max(np.abs(W))
            assert np.array_equal(got_W, got_W.T)

    def test_general_form_peak_memory(self):
        # the blocks are filled, scaled and symmetrized in place: at p=30 the
        # peak stays near two copies of the 900 x 900 result
        V, index = rand_spd(30, np.random.default_rng(30)), build_index(Graph.cycle(30))
        tracemalloc.start()
        try:
            W = constrained_scatter_acov(V, index, AsymptoticScalars(1.4, 0.2), form="general")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * W.nbytes


class TestScatterAcov:
    def test_identity_case(self):
        W = scatter_acov(np.eye(3), AsymptoticScalars(1.0, 0.0))
        assert np.allclose(W, 2.0 * symmetrization_matrix(3), atol=1e-14)

    def test_boundary_sigma2_psd(self):
        p = 4
        V = rand_spd(p, rng)
        s = AsymptoticScalars(0.8, -2.0 * 0.8 / p)
        W = scatter_acov(V, s)
        assert np.linalg.eigvalsh(W).min() >= -1e-10

    def test_symmetric_psd(self):
        V = rand_spd(5, rng)
        W = scatter_acov(V, AsymptoticScalars(1.3, 0.4))
        assert np.allclose(W, W.T, atol=1e-12)
        assert np.linalg.eigvalsh(W).min() >= -1e-10

    def test_scalar_bound_violation(self):
        with pytest.raises(PreconditionError):
            scatter_acov(np.eye(4), AsymptoticScalars(1.0, -0.6))

    @pytest.mark.parametrize("scalars", [(np.nan, 0.0, 1.0), (1.0, np.nan, 1.0), (1.0, 0.0, np.nan),
                                         (np.inf, 0.0, 1.0), (1.0, -np.inf, 1.0), (1.0, 0.0, np.inf)])
    def test_non_finite_scalars_rejected(self, scalars):
        with pytest.raises(PreconditionError, match="must be finite"):
            AsymptoticScalars(*scalars)

    def test_matches_monte_carlo_gaussian(self):
        # MC covariance of sqrt(n) vec(cov_hat - I) at n=5000, p=3.
        p, n, reps = 3, 5000, 1500
        local = np.random.default_rng(7117)
        vecs = np.empty((reps, p * p))
        for r in range(reps):
            X = local.standard_normal((n, p))
            Xc = X - X.mean(axis=0)
            vecs[r] = vec(Xc.T @ Xc / n - np.eye(p)) * np.sqrt(n)
        C = np.cov(vecs.T)
        W = scatter_acov(np.eye(p), AsymptoticScalars(1.0, 0.0))
        se = np.sqrt((np.outer(np.diag(W), np.diag(W)) + W ** 2) / reps)
        assert np.all(np.abs(C - W) <= 3.0 * se + 1e-12)


class TestConstrainedScatterAcov:
    def test_complete_graph_reduces(self):
        V = rand_spd(4, rng)
        s = AsymptoticScalars(1.2, 0.1)
        idx = build_index(Graph.complete(4))
        assert np.allclose(constrained_scatter_acov(V, idx, s), scatter_acov(V, s),
                           atol=1e-10)

    def test_general_vs_reduced_forms(self):
        K, S = chordless_cycle_shape(4, -0.3)
        s = AsymptoticScalars(1.5, 0.3)
        Wg = constrained_scatter_acov(S, CYCLE4, s, form="general")
        Wr = constrained_scatter_acov(S, CYCLE4, s, form="reduced")
        assert np.max(np.abs(Wg - Wr)) <= 1e-10

    def test_reduced_requires_pattern(self):
        V = rand_spd(4, np.random.default_rng(5))
        with pytest.raises(PreconditionError):
            constrained_scatter_acov(V, CYCLE4, AsymptoticScalars(1.0, 0.0),
                                     form="reduced")

    def test_symmetric_psd(self):
        K, S = chordless_cycle_shape(5, -0.2)
        W = constrained_scatter_acov(S, build_index(Graph.cycle(5)),
                                     AsymptoticScalars(1.0, 0.2))
        assert np.allclose(W, W.T, atol=1e-12)
        assert np.linalg.eigvalsh(W).min() >= -1e-10

    @pytest.mark.parametrize("a", [1e-6, 1e-3, 1.0, 1e3, 1e5, 1e6])
    def test_pattern_test_is_scale_free(self, a):
        # the absent-edge partial correlations of V^-1 decide, whatever the scale of V
        idx, s = build_index(Graph.cycle(5)), AsymptoticScalars(1.0, 0.2)
        V = a * rand_spd(5, np.random.default_rng(1))
        assert np.array_equal(constrained_scatter_acov(V, idx, s),
                              constrained_scatter_acov(V, idx, s, form="general"))
        with pytest.raises(PreconditionError, match="reduced form"):
            constrained_scatter_acov(V, idx, s, form="reduced")
        VG = constrain_scatter(V, idx, tol=1e-12).matrix
        assert np.array_equal(constrained_scatter_acov(VG, idx, s),
                              constrained_scatter_acov(VG, idx, s, form="reduced"))

    def test_matches_monte_carlo_gaussian_cycle(self):
        # MC covariance of sqrt(n) vec(completion(cov_hat) - S) on the 4-cycle.
        p, n, reps = 4, 2000, 1200
        K0, S0 = chordless_cycle_shape(p, -0.3)
        root = np.linalg.cholesky(S0)
        local = np.random.default_rng(9229)
        vecs = np.empty((reps, p * p))
        for r in range(reps):
            X = local.standard_normal((n, p)) @ root.T
            Xc = X - X.mean(axis=0)
            Sg = constrain_scatter(Xc.T @ Xc / n, CYCLE4, tol=1e-11).matrix
            vecs[r] = vec(Sg - S0) * np.sqrt(n)
        C = np.cov(vecs.T)
        W = constrained_scatter_acov(S0, CYCLE4, AsymptoticScalars(1.0, 0.0))
        se = np.sqrt((np.outer(np.diag(W), np.diag(W)) + W ** 2) / reps)
        assert np.all(np.abs(C - W) <= 3.0 * se + 5e-2 / np.sqrt(n))


class TestConcentrationAcov:
    def test_full_rank_on_random_admissible_shapes(self):
        # admissible V: inverse carries the cycle pattern; build it by
        # putting random weights on the cycle edges of the concentration
        idx = build_index(Graph.cycle(5))
        local = np.random.default_rng(91)
        for _ in range(5):
            K = np.eye(5)
            for a, b in Graph.cycle(5).edges:
                K[a - 1, b - 1] = K[b - 1, a - 1] = local.uniform(-0.45, 0.45)
            V = spd_inverse(K)
            W = concentration_acov(V, idx, AsymptoticScalars(1.1, 0.2))
            assert np.linalg.eigvalsh(W).min() > 0

    def test_complete_graph_identity_case(self):
        p = 3
        idx = build_index(Graph.complete(p))
        W = concentration_acov(np.eye(p), idx, AsymptoticScalars(1.0, 0.0))
        D, _ = duplication_matrix(p)
        assert np.allclose(W, 2.0 * np.linalg.inv(D.T @ D), atol=1e-12)

    def test_pattern_precondition(self):
        V = rand_spd(5, np.random.default_rng(6))
        with pytest.raises(PreconditionError):
            concentration_acov(V, build_index(Graph.cycle(5)),
                               AsymptoticScalars(1.0, 0.0))

    def test_consistent_with_delta_method_push(self):
        K, S = chordless_cycle_shape(5, -0.3)
        idx = build_index(Graph.cycle(5))
        s = AsymptoticScalars(1.4, 0.25)
        WVG = constrained_scatter_acov(S, idx, s)
        U = spd_inverse(S)
        UU = kron(U, U)
        push = Q_K(idx) @ (UU @ WVG @ UU) @ Q_K(idx).T
        assert np.max(np.abs(push - concentration_acov(S, idx, s))) <= 1e-8

    def test_gram_matches_dense_construction(self):
        K, S = chordless_cycle_shape(4, -0.2)
        Dp, _ = duplication_matrix(4)
        Gamma = Dp @ (Q_K(CYCLE4) @ Dp).T
        dense = Gamma.T @ kron(S, S) @ Gamma
        assert np.allclose(edge_basis_gram(S, CYCLE4), dense, atol=1e-12)

    def test_pattern_violation_reports_mass(self):
        K, S = chordless_cycle_shape(4, -0.3)
        assert pattern_violation(S, CYCLE4) < 1e-12
        assert pattern_violation(rand_spd(4, np.random.default_rng(3)), CYCLE4) > 1e-3


class TestNoDenseOperators:
    def test_solve_paths_avoid_dense_operators(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense structural operator built on a solve path")

        for name, module in list(sys.modules.items()):
            if name == "egm" or name.startswith("egm."):
                for op in ("kron", "selection_matrix", "duplication_matrix", "commutation_matrix"):
                    if hasattr(module, op):
                        monkeypatch.setattr(module, op, forbidden)

        local = np.random.default_rng(77)
        s = AsymptoticScalars(1.2, 0.1)
        G = Graph.cycle(5)
        idx = build_index(G)
        A = rand_spd(5, local)
        K, S = chordless_cycle_shape(5, -0.3)
        constrain_jacobian(A, idx)
        constrained_scatter_acov(A, idx, s, form="general")
        constrained_scatter_acov(S, idx, s, form="reduced")
        scatter_acov(A, s)
        edge_basis_gram(S, idx)
        are_chordless_cycle(7, -0.3)
        deviance(A, idx, build_index(G.with_edge(1, 3)), n=100)
        X = local.standard_normal((60, 4))
        backward_elimination(X, make_spec("gaussian", 4), 0.05)
