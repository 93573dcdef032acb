"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import json
import time

import numpy as np
import pytest

from egm import cli
from egm.covsel import AsymptoticScalars, constrain_jacobian, constrain_scatter, \
    constrained_scatter_acov
from egm.graphs import Graph, build_index, is_chordal
from egm.inference import chordless_cycle_shape, partial_correlation, \
    partial_correlation_derivative
from egm.linops import commutation_matrix, duplication_matrix, kron, mat, \
    symmetrization_matrix, vec
from egm.mest import m_scalars, make_spec, mle_scalars, radial_for_family, \
    sample_cov_scalars
from egm.simulate import EllipticalModel, deviance_null_study, equivalence_study

from _oracles import (
    Q_D,
    Q_K,
    fd_directional,
    hg_optimization_oracle,
    rand_spd,
    random_graph,
    random_symmetric_direction,
)

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


def test_criterion_1_efficiency_table(tmp_path, capsys):
    """Full default efficiency grid matches every printed table cell."""
    out = tmp_path / "table.json"
    start = time.time()
    rc = cli.main(["are-table", "--format", "json", "--output", str(out)])
    elapsed = time.time() - start
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["p"] == TABLE1_P
    assert [round(c, 2) for c in payload["c"]] == [round(c, 2) for c in TABLE1_C]
    mismatches = [
        (p, c, got, want)
        for i, c in enumerate(TABLE1_C)
        for j, p in enumerate(TABLE1_P)
        for got, want in [(payload["are"][i][j], TABLE1[i][j])]
        if abs(got - want) > 1e-9
    ]
    assert mismatches == []
    assert elapsed < 30.0
    print(f"\ncriterion 1: PASS - all 91 table cells reproduced ({elapsed:.1f}s)")


def test_criterion_2_completion_against_oracle():
    """50 random (graph, SPD) pairs: conditions hold and the optimizer agrees."""
    rng = np.random.default_rng(501)
    start = time.time()
    cases = []
    for p in (4, 5, 6, 7, 8):
        cases.append((build_index(Graph.cycle(p)), rand_spd(p, rng)))
        for _ in range(9):
            cases.append((build_index(random_graph(p, rng)), rand_spd(p, rng)))
    assert len(cases) == 50
    non_chordal = sum(not is_chordal(idx.graph) for idx, _ in cases)
    assert non_chordal >= 10  # non-decomposable graphs are well represented
    for idx, A in cases:
        fit = constrain_scatter(A, idx, tol=1e-10)
        assert fit.residual <= 1e-8
        K = np.linalg.inv(fit.matrix)
        assert np.max(np.abs((fit.matrix - A)[idx.k_mask])) <= 1e-8
        assert (not idx.d_mask.any()) or np.max(np.abs(K[idx.d_mask])) <= 1e-8
        oracle = hg_optimization_oracle(A, idx)
        assert np.linalg.norm(fit.matrix - oracle, "fro") <= 1e-6
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"criterion 2: PASS - 50/50 oracle matches, {non_chordal} non-chordal "
          f"({elapsed:.1f}s)")


def test_criterion_3_derivatives():
    """Analytic derivatives match central differences; both acov forms agree."""
    rng = np.random.default_rng(33)
    h = 1e-6

    for _ in range(20):
        p = int(rng.integers(4, 7))
        idx = build_index(random_graph(p, rng, prob=0.5))
        A = rand_spd(p, rng)
        J = constrain_jacobian(A, idx)
        E = random_symmetric_direction(p, rng)
        fd = fd_directional(lambda M: constrain_scatter(M, idx, tol=1e-13).matrix,
                            A, E, h=h)
        JE = mat(J @ vec(E), p)
        assert np.linalg.norm(fd - JE, "fro") / np.linalg.norm(JE, "fro") <= 1e-5

    for _ in range(20):
        p = int(rng.integers(3, 7))
        A = rand_spd(p, rng)
        J = partial_correlation_derivative(A)
        E = random_symmetric_direction(p, rng)
        fd = fd_directional(partial_correlation, A, E, h=h)
        JE = mat(J @ vec(E), p)
        assert np.linalg.norm(fd - JE, "fro") / np.linalg.norm(JE, "fro") <= 1e-5

    for p, c in [(4, -0.3), (5, -0.25), (6, -0.4)]:
        K, S = chordless_cycle_shape(p, c)
        idx = build_index(Graph.cycle(p))
        s = AsymptoticScalars(1.4, 0.2)
        Wg = constrained_scatter_acov(S, idx, s, form="general")
        Wr = constrained_scatter_acov(S, idx, s, form="reduced")
        assert np.max(np.abs(Wg - Wr)) <= 1e-10
    print("criterion 3: PASS - 20+20 finite-difference matches, acov forms agree")


def test_criterion_4_null_calibration():
    """Rescaled deviance hits the chi-square(1) 95th percentile within 8%."""
    start = time.time()
    K5, S5 = chordless_cycle_shape(5, -0.3)
    G0 = Graph.cycle(5)
    i0 = build_index(G0)
    i1 = build_index(G0.with_edge(1, 3))
    target = 3.841458820694124  # chi-square(1) 95th percentile
    results = {}
    for family, est in (("gaussian", "gaussian"), ("t:5", "t:5")):
        model = EllipticalModel(np.zeros(5), S5, family)
        rep = deviance_null_study(i0, i1, model, make_spec(est, 5),
                                  n=500, replicates=5000, seed=20260810)
        q95 = rep.summary["empirical_quantiles"]["0.95"]
        assert abs(q95 - target) <= 0.08 * target, (family, q95)
        results[family] = q95
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"criterion 4: PASS - q95 gaussian={results['gaussian']:.3f}, "
          f"t:5={results['t:5']:.3f} vs {target:.3f} ({elapsed:.0f}s)")


def test_criterion_5_asymptotic_equivalence():
    """Plug-in and graphical M-estimates coincide at rate faster than sqrt(n)."""
    start = time.time()
    K5, S5 = chordless_cycle_shape(5, -0.3)
    idx = build_index(Graph.cycle(5))
    n_grid = [250, 1000, 4000]

    model_t = EllipticalModel(np.zeros(5), S5, "t:5")
    rep_t = equivalence_study(idx, model_t, make_spec("t:5", 5),
                              n_grid, replicates=200, seed=424242)
    med = rep_t.summary["median_scatter_delta"]
    assert med["4000"] < 0.5 * med["250"], med

    model_g = EllipticalModel(np.zeros(5), S5, "gaussian")
    rep_g = equivalence_study(idx, model_g, make_spec("gaussian", 5),
                              n_grid, replicates=200, seed=424242)
    for n, value in rep_g.summary["median_delta"].items():
        assert value <= 1e-7, (n, value)
    elapsed = time.time() - start
    print(f"criterion 5: PASS - t:5 medians {med['250']:.3f} -> {med['4000']:.3f}, "
          f"gaussian max {max(rep_g.summary['median_delta'].values()):.1e} "
          f"({elapsed:.0f}s)")


def test_criterion_6_scalar_cross_checks():
    """Scalar routines: exact Gaussian case, MLE specialization, MC oracles."""
    s = sample_cov_scalars(0.0)
    assert (s.sigma1, s.sigma2, s.eta) == (1.0, 0.0, 1.0)

    p, nu = 3, 5.0
    radial = radial_for_family("t:5", p)
    sm = m_scalars(make_spec("t:5", p), radial, p)
    se = mle_scalars(radial, lambda y: -0.5 * (p + nu) / (nu + np.asarray(y, float)), p)
    assert abs(sm.sigma1 - se.sigma1) <= 1e-6
    assert abs(sm.sigma2 - se.sigma2) <= 1e-6

    # 10^6-sample Monte Carlo oracles for the quadrature expectations;
    # sigma1 and the expectations themselves carry the 1% requirement,
    # sigma2 amplifies their sampling noise roughly ninefold, so it gets
    # a band sized to that amplification (its value is already pinned to
    # 1e-6 by the maximum-likelihood cross-check above)
    r = p * np.random.default_rng(606).f(p, nu, 1_000_000)
    phi2 = lambda s_: s_ * (p + nu) / (nu + s_)
    dphi2 = lambda s_: (p + nu) * nu / (nu + s_) ** 2
    g1 = np.mean(phi2(r) ** 2) / (p * (p + 2.0))
    g2 = np.mean(r * dphi2(r)) / p
    quad_g1 = radial.expect(lambda s_: phi2(s_) ** 2) / (p * (p + 2.0))
    quad_g2 = radial.expect(lambda s_: s_ * dphi2(s_)) / p
    assert abs(g1 - quad_g1) / quad_g1 <= 0.01
    assert abs(g2 - quad_g2) / quad_g2 <= 0.01
    mc_sigma1 = (p + 2.0) ** 2 * g1 / (2.0 * g2 + p) ** 2
    mc_sigma2 = ((g1 - 1.0) - 2.0 * g1 * (g2 - 1.0) * (p + (p + 4.0) * g2)
                 / (2.0 * g2 + p) ** 2) / g2 ** 2
    assert abs(sm.sigma1 - mc_sigma1) / abs(mc_sigma1) <= 0.01
    assert abs(sm.sigma2 - mc_sigma2) / abs(mc_sigma2) <= 0.05

    spec_h = make_spec("huber:1.345", p)
    rad_g = radial_for_family("gaussian", p)
    sh = m_scalars(spec_h, rad_g, p)
    rg = np.random.default_rng(707).chisquare(p, 1_000_000)
    g1h = np.mean(spec_h.phi2(rg) ** 2) / (p * (p + 2.0))
    g2h = np.mean(rg * spec_h.phi2_prime(rg)) / p
    mc_sigma1_h = (p + 2.0) ** 2 * g1h / (2.0 * g2h + p) ** 2
    assert abs(sh.sigma1 - mc_sigma1_h) / mc_sigma1_h <= 0.01
    print(f"criterion 6: PASS - exact gaussian triple, MLE match "
          f"{abs(sm.sigma1 - se.sigma1):.1e}, MC gaps "
          f"{abs(sm.sigma1 - mc_sigma1) / mc_sigma1:.2%}/"
          f"{abs(sh.sigma1 - mc_sigma1_h) / mc_sigma1_h:.2%}")


def test_criterion_7_structural_identities():
    """Structural matrix identities at 1e-12; completion map invariances at 1e-8."""
    rng = np.random.default_rng(77)
    for p in range(1, 7):
        D, Dp = duplication_matrix(p)
        M = symmetrization_matrix(p)
        Kp = commutation_matrix(p)
        m = p * (p + 1) // 2
        assert np.max(np.abs(D @ Dp - M)) <= 1e-12
        assert np.max(np.abs(Dp @ D - np.eye(m))) <= 1e-12
        A = rng.standard_normal((p, p))
        AA = kron(A, A)
        assert np.max(np.abs(M @ AA @ M - M @ AA)) <= 1e-12
        assert np.max(np.abs(M @ AA - AA @ M)) <= 1e-12
        assert np.max(np.abs(Kp @ Kp - np.eye(p * p))) <= 1e-12
        assert np.max(np.abs(Kp.T @ Kp - np.eye(p * p))) <= 1e-12
        idx = build_index(random_graph(p, rng))
        for Q in (Q_D(idx), Q_K(idx)):
            if Q.shape[0]:
                assert np.max(np.abs(Q @ Q.T - np.eye(Q.shape[0]))) <= 1e-12

    for _ in range(10):
        p = int(rng.integers(3, 9))
        idx = build_index(random_graph(p, rng))
        A = rand_spd(p, rng)
        once = constrain_scatter(A, idx, tol=1e-11).matrix
        twice = constrain_scatter(once, idx, tol=1e-11).matrix
        assert np.max(np.abs(twice - once)) <= 1e-8
        d = np.exp(rng.uniform(-1.0, 1.0, p))
        D = np.diag(d)
        left = constrain_scatter(D @ A @ D, idx, tol=1e-12).matrix
        right = D @ constrain_scatter(A, idx, tol=1e-12).matrix @ D
        assert np.max(np.abs(left - right)) <= 1e-8
    print("criterion 7: PASS - structural identities and completion invariances")
