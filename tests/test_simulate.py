import json

import numpy as np
import pytest
import scipy.stats

from egm.errors import ConvergenceError, DimensionError, PreconditionError
from egm.graphs import Graph, build_index
from egm.inference import chordless_cycle_shape
from egm.mest import make_spec
from egm.simulate import (
    EllipticalModel,
    StudyReport,
    deviance_null_study,
    equivalence_study,
    sample,
    shape_sqrt,
)

from _oracles import rand_spd

S3 = np.array([[2.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.5]])
MU3 = np.array([1.0, -1.0, 0.0])


class TestEllipticalModel:
    def test_validates_shapes(self):
        with pytest.raises(DimensionError):
            EllipticalModel(np.zeros(2), S3, "gaussian")

    def test_validates_family(self):
        with pytest.raises(PreconditionError):
            EllipticalModel(MU3, S3, "laplace")
        with pytest.raises(PreconditionError):
            EllipticalModel(MU3, S3, "t:0")

    def test_radial_kinds(self):
        assert EllipticalModel(MU3, S3, "gaussian").radial.kind == "chi-square-p"
        assert EllipticalModel(MU3, S3, "t:5").radial.kind.startswith("scaled-f")


class TestSample:
    def test_deterministic(self):
        m = EllipticalModel(MU3, S3, "t:5")
        assert np.array_equal(sample(m, 100, 42), sample(m, 100, 42))
        assert not np.array_equal(sample(m, 100, 42), sample(m, 100, 43))

    def test_affine_pushforward_bit_identical(self):
        for family in ("gaussian", "t:5"):
            m = EllipticalModel(MU3, S3, family)
            std = EllipticalModel(np.zeros(3), np.eye(3), family)
            Z = sample(std, 400, 7)
            assert np.array_equal(sample(m, 400, 7), MU3 + Z @ shape_sqrt(S3))

    def test_law_of_large_numbers(self):
        m = EllipticalModel(MU3, S3, "gaussian")
        X = sample(m, 100_000, 5)
        n = len(X)
        assert np.max(np.abs(X.mean(axis=0) - MU3)) < 4.0 * np.sqrt(np.max(np.diag(S3)) / n)
        C = np.cov(X.T)
        se = np.sqrt((np.outer(np.diag(S3), np.diag(S3)) + S3 ** 2) / n)
        assert np.all(np.abs(C - S3) < 4.0 * se)

    def test_gaussian_radii_chi_square(self):
        m = EllipticalModel(MU3, S3, "gaussian")
        X = sample(m, 100_000, 99)
        Xc = X - MU3
        r = np.einsum("ij,jk,ik->i", Xc, np.linalg.inv(S3), Xc)
        assert scipy.stats.kstest(r, scipy.stats.chi2(3).cdf).pvalue > 1e-3

    def test_t_radii_scaled_f(self):
        m = EllipticalModel(MU3, S3, "t:5")
        X = sample(m, 100_000, 99)
        Xc = X - MU3
        r = np.einsum("ij,jk,ik->i", Xc, np.linalg.inv(S3), Xc)
        assert scipy.stats.kstest(r / 3.0, scipy.stats.f(3, 5).cdf).pvalue > 1e-3

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError):
            sample(EllipticalModel(MU3, S3, "gaussian"), 0, 1)


class TestEquivalenceStudy:
    def test_misspecified_shape_rejected(self):
        S = rand_spd(5, np.random.default_rng(2))
        model = EllipticalModel(np.zeros(5), S, "t:5")
        with pytest.raises(PreconditionError):
            equivalence_study(build_index(Graph.cycle(5)), model,
                              make_spec("t:5", 5), [200], 2, seed=1)

    def test_gaussian_weights_coincide(self):
        K, S = chordless_cycle_shape(5, -0.3)
        model = EllipticalModel(np.zeros(5), S, "gaussian")
        rep = equivalence_study(build_index(Graph.cycle(5)), model,
                                make_spec("gaussian", 5), [250, 4000], 5, seed=123)
        for med in rep.summary["median_delta"].values():
            assert med <= 1e-7

    def test_t5_discrepancy_shrinks(self):
        K, S = chordless_cycle_shape(5, -0.3)
        model = EllipticalModel(np.zeros(5), S, "t:5")
        rep = equivalence_study(build_index(Graph.cycle(5)), model,
                                make_spec("t:5", 5), [250, 4000], 25, seed=5)
        med = rep.summary["median_scatter_delta"]
        assert med["4000"] < 0.7 * med["250"]
        assert rep.failures == 0

    def test_reproducible_bit_identical(self):
        K, S = chordless_cycle_shape(4, -0.25)
        model = EllipticalModel(np.zeros(4), S, "t:6")
        args = (build_index(Graph.cycle(4)), model, make_spec("t:6", 4), [150], 4)
        a = equivalence_study(*args, seed=9)
        b = equivalence_study(*args, seed=9)
        assert a.metrics == b.metrics

    def test_failure_cap_enforced(self):
        K, S = chordless_cycle_shape(4, -0.25)
        model = EllipticalModel(np.zeros(4), S, "t:5")
        with pytest.raises(ConvergenceError, match="cap"):
            equivalence_study(build_index(Graph.cycle(4)), model,
                              make_spec("t:5", 4), [40], 2, seed=3, tol=1e-17)

    def test_failure_log_round_trips_through_json(self):
        rep = StudyReport("equivalence", 1, 3, {}, {}, 2,
                          [(0, "n=40: no convergence"), (2, "n=80: lost definiteness")])
        back = json.loads(json.dumps(rep.to_dict()))
        assert back["failure_log"] == [[0, "n=40: no convergence"], [2, "n=80: lost definiteness"]]
        assert [tuple(f) for f in back["failure_log"]] == rep.failure_log

    def test_csv_rows(self):
        K, S = chordless_cycle_shape(4, -0.2)
        model = EllipticalModel(np.zeros(4), S, "gaussian")
        rep = equivalence_study(build_index(Graph.cycle(4)), model,
                                make_spec("gaussian", 4), [100], 3, seed=2)
        rows = rep.csv_rows()
        assert rows[0] == ("metric", "group", "replicate", "value")
        assert len(rows) == 1 + 2 * 3  # two metrics, three replicates, one n


class TestDevianceNullStudy:
    def test_summary_structure(self):
        K, S = chordless_cycle_shape(5, -0.3)
        model = EllipticalModel(np.zeros(5), S, "gaussian")
        i0 = build_index(Graph.cycle(5))
        i1 = build_index(Graph.cycle(5).with_edge(1, 3))
        rep = deviance_null_study(i0, i1, model, make_spec("gaussian", 5),
                                  n=300, replicates=50, seed=11)
        assert rep.summary["df"] == 1
        assert rep.summary["sigma1"] == 1.0
        ref = rep.summary["reference_quantiles"]
        assert np.isclose(ref["0.95"], scipy.stats.chi2.ppf(0.95, 1), atol=1e-12)
        assert len(rep.metrics["deviance"]["300"]) == 50

    def test_null_shape_precondition(self):
        model = EllipticalModel(np.zeros(5), rand_spd(5, np.random.default_rng(1)), "gaussian")
        i0 = build_index(Graph.cycle(5))
        i1 = build_index(Graph.complete(5))
        with pytest.raises(PreconditionError):
            deviance_null_study(i0, i1, model, make_spec("gaussian", 5), 200, 5, seed=1)

    def test_reproducible(self):
        K, S = chordless_cycle_shape(4, -0.25)
        model = EllipticalModel(np.zeros(4), S, "gaussian")
        i0 = build_index(Graph.cycle(4))
        i1 = build_index(Graph.complete(4))
        a = deviance_null_study(i0, i1, model, make_spec("gaussian", 4), 200, 20, seed=8)
        b = deviance_null_study(i0, i1, model, make_spec("gaussian", 4), 200, 20, seed=8)
        assert a.metrics == b.metrics

    def test_small_sample_reports_without_assertion(self):
        # n=50 is reported only; no calibration claim is made at this size
        K, S = chordless_cycle_shape(4, -0.2)
        model = EllipticalModel(np.zeros(4), S, "gaussian")
        i0 = build_index(Graph.cycle(4))
        i1 = build_index(Graph.complete(4))
        rep = deviance_null_study(i0, i1, model, make_spec("gaussian", 4), 50, 30, seed=4)
        assert all(s >= 0.0 for s in rep.metrics["deviance"]["50"])
