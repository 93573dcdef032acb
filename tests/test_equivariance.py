"""Affine equivariance of the solvers and checks.

The model fixes only the zero pattern of the inverse shape, and the
M-estimators, the max-determinant completion (C(D A D) = D C(A) D) and the
deviance are equivariant under X -> a (X + b).  Every stop and every
zero-pattern test is dimensionless, so a rescaled or shifted input gives the
mapped answer of the unit input, in as many steps up to rounding.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egm.covsel import (
    AsymptoticScalars,
    concentration_acov,
    constrain_scatter,
    constrained_scatter_acov,
    pattern_violation,
)
from egm.errors import PreconditionError
from egm.graphs import Graph, build_index
from egm.inference import (asv_partial_correlation, backward_elimination, chordless_cycle_shape,
                           deviance)
from egm.mest import graphical_m_estimate, m_estimate, make_spec
from egm.simulate import EllipticalModel, sample

from _oracles import rand_spd, random_graph

CYCLE5 = build_index(Graph.cycle(5))
# a = 10^e with e in [-9, 8], and per-column offsets up to 1e8 in the data's units
scales = st.floats(-9.0, 8.0).map(lambda e: 10.0 ** e)
offsets = st.one_of(st.just(0.0), st.floats(-1e8, 1e8))


def distance(mu, S, mu_ref, S_ref) -> float:
    """The solvers' metric between two fits, in the units of the reference:
    location over max(d_j, |mu_j|), scatter over d_i d_j, d = sqrt(diag S_ref)."""
    d = np.sqrt(np.diag(S_ref))
    return max(np.max(np.abs(mu - mu_ref) / np.maximum(d, np.abs(mu_ref))),
               np.max(np.abs(S - S_ref) / np.outer(d, d)))


@lru_cache(maxsize=None)
def data():
    K0, S0 = chordless_cycle_shape(5, -0.3)
    return sample(EllipticalModel(np.zeros(5), S0, "t:5"), 300, 9)


@lru_cache(maxsize=None)
def unit_fit(name: str, graphical: bool):
    spec = make_spec(name, 5)
    return graphical_m_estimate(data(), CYCLE5, spec) if graphical else m_estimate(data(), spec)


@settings(max_examples=40)
@given(a=scales, b=st.lists(offsets, min_size=5, max_size=5),
       name=st.sampled_from(["t:5", "huber:1.345", "t:1"]), graphical=st.booleans())
def test_fits_map_with_the_data(a, b, name, graphical):
    spec, b = make_spec(name, 5), np.array(b)
    Y = a * (data() + b)
    fit = graphical_m_estimate(Y, CYCLE5, spec) if graphical else m_estimate(Y, spec)
    ref = unit_fit(name, graphical)
    assert fit.converged and fit.residual <= 1e-9
    assert distance(fit.mu, fit.scatter, a * (ref.mu + b), a * a * ref.scatter) <= 1e-8
    assert abs(fit.iterations - ref.iterations) <= 1


@pytest.mark.parametrize("a,b", [(1e-9, 0.0), (1e8, 0.0), (1.0, 1e6), (1.0, 1e8)])
def test_fits_of_large_samples_converge(a, b):
    # at n=4000 the location's rounding at an offset of 1e8 stays below tol
    K0, S0 = chordless_cycle_shape(5, -0.3)
    X = sample(EllipticalModel(np.zeros(5), S0, "t:5"), 4000, 9)
    for name in ("t:5", "huber:1.345", "t:1"):
        spec = make_spec(name, 5)
        for fit in (lambda Y: m_estimate(Y, spec), lambda Y: graphical_m_estimate(Y, CYCLE5, spec)):
            ref, got = fit(X), fit(a * (X + b))
            assert got.converged and got.residual <= 1e-9
            assert distance(got.mu, got.scatter, a * (ref.mu + b), a * a * ref.scatter) <= 1e-8
            assert abs(got.iterations - ref.iterations) <= 1


@pytest.mark.filterwarnings("ignore:input matrix has condition number")
@settings(max_examples=60)
@given(p=st.integers(4, 8), seed=st.integers(0, 2**32 - 1),
       e=st.lists(st.floats(-8.0, 8.0), min_size=8, max_size=8))
def test_completion_commutes_with_diagonal_scaling(p, seed, e):
    local = np.random.default_rng(seed)
    index, A = build_index(random_graph(p, local)), rand_spd(p, local)
    D = 10.0 ** np.array(e[:p])
    ref, got = constrain_scatter(A, index), constrain_scatter(A * np.outer(D, D), index)
    d = np.sqrt(np.diag(A)) * D
    assert np.max(np.abs(got.matrix - ref.matrix * np.outer(D, D)) / np.outer(d, d)) <= 1e-12
    assert abs(got.iterations - ref.iterations) <= 1


@pytest.mark.parametrize("a", [1e-8, 1e-4, 1e4, 1e8])
def test_scaled_completion_takes_the_unit_steps(a):
    A = np.cov(sample(EllipticalModel(np.zeros(5), chordless_cycle_shape(5, -0.3)[1], "t:5"),
                      50, 1).T)
    ref, got = constrain_scatter(A, CYCLE5), constrain_scatter(a * A, CYCLE5)
    assert abs(got.iterations - ref.iterations) <= 1
    assert np.max(np.abs(got.matrix / a - ref.matrix)) <= 1e-12 * np.max(np.abs(ref.matrix))


@settings(max_examples=40)
@given(a=scales, seed=st.integers(0, 2**32 - 1))
def test_deviance_is_scale_free(a, seed):
    S = rand_spd(5, np.random.default_rng(seed))
    chord = build_index(Graph.cycle(5).with_edge(1, 3))
    ref, got = deviance(S, CYCLE5, chord, 100), deviance(a * S, CYCLE5, chord, 100)
    assert abs(got.statistic - ref.statistic) <= 1e-9 * max(1.0, ref.statistic)


@settings(max_examples=15)
@given(a=scales, b=st.lists(offsets, min_size=5, max_size=5))
def test_search_trail_is_scale_free(a, b):
    X, spec = data(), make_spec("t:5", 5)
    ref, ref_steps = backward_elimination(X, spec, 0.05, family="t:5")
    got, steps = backward_elimination(a * (X + np.array(b)), spec, 0.05, family="t:5")
    assert got.edges == ref.edges
    assert [s["removed_edge"] for s in steps] == [s["removed_edge"] for s in ref_steps]
    for s, r in zip(steps, ref_steps):
        gap = abs(s["deviance_delta"] - r["deviance_delta"])
        assert gap <= 1e-6 * max(1.0, r["deviance_delta"])


@pytest.mark.parametrize("a", [1e-9, 1e-4, 1.0, 1e4, 1e9])
def test_pattern_checks_are_scale_free(a):
    # the compliant model shape passes and a generic matrix fails at every scale
    K0, S0 = chordless_cycle_shape(5, -0.3)
    V, s = rand_spd(5, np.random.default_rng(1)), AsymptoticScalars(1.0, 0.2)
    assert pattern_violation(a * S0, CYCLE5) <= 1e-14
    assert abs(pattern_violation(a * V, CYCLE5) - pattern_violation(V, CYCLE5)) <= 1e-14
    assert np.isfinite(asv_partial_correlation(a * S0, CYCLE5, s, (1, 2)))
    assert np.isfinite(concentration_acov(a * S0, CYCLE5, s)).all()
    assert np.array_equal(constrained_scatter_acov(a * S0, CYCLE5, s),
                          constrained_scatter_acov(a * S0, CYCLE5, s, form="reduced"))
    for check in (lambda: asv_partial_correlation(a * V, CYCLE5, s, (1, 2)),
                  lambda: concentration_acov(a * V, CYCLE5, s),
                  lambda: constrained_scatter_acov(a * V, CYCLE5, s, form="reduced")):
        with pytest.raises(PreconditionError):
            check()
