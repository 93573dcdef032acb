import json

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from egm import covsel, mest, simulate
from egm.errors import (
    ConvergenceError,
    DegenerateDataError,
    DimensionError,
    PreconditionError,
    SampleSizeError,
)
from egm.graphs import Graph, build_index
from egm.inference import chordless_cycle_shape, deviance
from egm.mest import _validate_data, graphical_m_estimate, m_estimate, make_spec, plug_in_estimate
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_names_non_finite_shape_entry(self, bad):
        S = S3.copy()
        S[1, 2] = S[2, 1] = bad
        with pytest.raises(PreconditionError, match="non-finite value at row 2, column 3"):
            EllipticalModel(MU3, S, "gaussian")

    def test_validates_family(self):
        with pytest.raises(PreconditionError):
            EllipticalModel(MU3, S3, "laplace")
        with pytest.raises(PreconditionError):
            EllipticalModel(MU3, S3, "t:0")

    @pytest.mark.parametrize("family", ["t:nan", "t:inf"])
    def test_rejects_non_finite_degrees_of_freedom(self, family):
        with pytest.raises(PreconditionError):
            EllipticalModel(MU3, S3, family)

    def test_builds_no_radial_law(self, monkeypatch):
        calls = []
        quad = scipy.integrate.quad
        monkeypatch.setattr(scipy.integrate, "quad", lambda *a, **k: calls.append(1) or quad(*a, **k))
        EllipticalModel(MU3, S3, "t:5")
        EllipticalModel(MU3, S3, "gaussian")
        assert calls == []


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

    def test_t_rows_are_scaled_normal_draws(self):
        rng = np.random.default_rng(42)
        Z = rng.standard_normal((50, 3))
        Z = Z / np.sqrt(rng.chisquare(5.0, 50) / 5.0)[:, None]
        m = EllipticalModel(MU3, S3, "t:5")
        assert np.array_equal(sample(m, 50, 42), MU3 + Z @ shape_sqrt(S3))

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError):
            sample(EllipticalModel(MU3, S3, "gaussian"), 0, 1)

    @pytest.mark.parametrize("seed", [-1, 2.5, [3, -1], [], "7", None, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(PreconditionError, match=r"seed must be an integer >= 0 .*got seed="):
            sample(EllipticalModel(MU3, S3, "gaussian"), 10, seed)

    @pytest.mark.parametrize("n", [2.5, 10.0, "10"])
    def test_rejects_non_integer_size(self, n):
        with pytest.raises(PreconditionError, match=r"sample size n must be an integer >= 1, got n="):
            sample(EllipticalModel(MU3, S3, "gaussian"), n, 1)

    @pytest.mark.parametrize("seed, n, what", [(-1, 100, "seed"), (2.5, 100, "seed"),
                                               ([1, 2], 100, "seed"), (1, 2.5, "n"),
                                               (1, 100, "replicates")])
    def test_studies_reject_bad_seed_and_size(self, seed, n, what):
        m5, _ = _cycle_models("gaussian")
        spec = make_spec("gaussian", 5)
        r = 2.5 if what == "replicates" else 2
        for study in (lambda: deviance_null_study(I5, I5_CHORD, m5, spec, n, r, seed),
                      lambda: equivalence_study(I5, m5, spec, [n], r, seed)):
            with pytest.raises(PreconditionError, match=f"got {what}="):
                study()


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


def _cycle_models(family):
    K5, S5 = chordless_cycle_shape(5, -0.3)
    K4, S4 = chordless_cycle_shape(4, -0.25)
    return EllipticalModel(np.zeros(5), S5, family), EllipticalModel(np.zeros(4), S4, family)


I5 = build_index(Graph.cycle(5))
I5_CHORD = build_index(Graph.cycle(5).with_edge(1, 3))
I4 = build_index(Graph.cycle(4))


class TestStudySizes:
    def test_dimension_mismatch_is_typed(self):
        _, m4 = _cycle_models("gaussian")
        with pytest.raises(DimensionError, match="graph has p=5 but V is 4x4"):
            deviance_null_study(I5, I5_CHORD, m4, make_spec("gaussian", 4), 100, 3, seed=1)
        with pytest.raises(DimensionError, match="graph has p=5 but V is 4x4"):
            equivalence_study(I5, m4, make_spec("gaussian", 4), [100], 3, seed=1)

    @pytest.mark.parametrize("replicates", [0, -3])
    def test_replicates_below_one_rejected(self, replicates):
        m5, m4 = _cycle_models("gaussian")
        with pytest.raises(PreconditionError, match="at least one replicate"):
            deviance_null_study(I5, I5_CHORD, m5, make_spec("gaussian", 5), 100, replicates, seed=1)
        with pytest.raises(PreconditionError, match="at least one replicate"):
            equivalence_study(I4, m4, make_spec("gaussian", 4), [100], replicates, seed=1)

    @pytest.mark.parametrize("text", ["gaussian", "t:5", "huber:1.345"])
    def test_spec_of_another_dimension_rejected(self, text):
        m5, m4 = _cycle_models("t:5")
        with pytest.raises(DimensionError, match="built for p=3, not for p=5"):
            deviance_null_study(I5, I5_CHORD, m5, make_spec(text, 3), 100, 4, seed=1)
        with pytest.raises(DimensionError, match="built for p=3, not for p=4"):
            equivalence_study(I4, m4, make_spec(text, 3), [100], 4, seed=1)

    def test_repeated_n_rejected(self):
        _, m4 = _cycle_models("gaussian")
        with pytest.raises(PreconditionError, match="distinct"):
            equivalence_study(I4, m4, make_spec("gaussian", 4), [100, 100], 3, seed=1)


class TestStackCheck:
    """``simulate._checked`` checks a replicate stack with one rank test and
    raises what the replicate-by-replicate check raises first."""

    @staticmethod
    def serial(X):
        for x in X:
            _validate_data(x)

    def raises_as_serial(self, X, kind):
        with pytest.raises(kind) as serial:
            self.serial(X)
        with pytest.raises(kind) as stacked:
            simulate._checked(X)
        assert str(stacked.value) == str(serial.value)

    def test_first_failing_replicate_first_check(self):
        local = np.random.default_rng(3)
        X = local.standard_normal((5, 20, 3))
        X[3, 4, 1] = np.nan
        X[1, :, 2] = X[1, :, 0] - X[1, :, 1]
        self.raises_as_serial(X, DegenerateDataError)
        good = X[1].copy()
        X[1] = local.standard_normal((20, 3))
        X[2, 6, 0] = np.inf
        self.raises_as_serial(X, PreconditionError)
        # replicate 1 fails both checks: its non-finite cell is named
        X[1] = good
        X[1, 0, 2] = np.inf
        self.raises_as_serial(X, PreconditionError)

    def test_too_few_rows(self):
        X = np.random.default_rng(3).standard_normal((4, 3, 3))
        self.raises_as_serial(X, SampleSizeError)
        X[0, 1, 1] = -np.inf
        self.raises_as_serial(X, PreconditionError)

    def test_valid_stack_passes_unchanged(self):
        X = np.random.default_rng(3).standard_normal((128, 500, 5))
        assert simulate._checked(X) is X
        ranks = np.linalg.matrix_rank(X - X.mean(axis=1, keepdims=True))
        assert np.array_equal(ranks, [np.linalg.matrix_rank(x - x.mean(axis=0)) for x in X])


# huber:1.0 at these sizes fails on some replicates and converges on others
NULL_ARGS = dict(n=12, replicates=20, seed=7)
EQUIV_GRID, EQUIV_R = [8, 30], 10


def _null_study(spec_text="huber:1.0"):
    m5, _ = _cycle_models("t:5")
    return deviance_null_study(I5, I5_CHORD, m5, make_spec(spec_text, 5), **NULL_ARGS)


def _equiv_study(spec_text="huber:1.0"):
    _, m4 = _cycle_models("t:5")
    return equivalence_study(I4, m4, make_spec(spec_text, 4), EQUIV_GRID, EQUIV_R, seed=7)


class TestChunkedStudies:
    @pytest.fixture(autouse=True)
    def no_cap(self, monkeypatch):
        # keep the reports of studies whose failures exceed the cap
        monkeypatch.setattr(simulate, "FAILURE_CAP", 1.0)

    @pytest.mark.parametrize("study", [_null_study, _equiv_study])
    def test_independent_of_chunk_size(self, study, monkeypatch):
        # a budget that fails some replicates and not others
        monkeypatch.setattr(simulate, "_MAX_ITER", 60)
        reports = []
        # a stack of one, chunks that split a tile, and one stack per study
        for chunk in (1, 5, simulate._CHUNK):
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            reports.append(study().to_dict())
        assert reports[0]["failures"] > 0
        assert reports[0]["metrics"] == reports[1]["metrics"] == reports[2]["metrics"]
        for key in ("failures", "failure_log", "summary"):
            assert reports[0][key] == reports[1][key] == reports[2][key]

    @pytest.mark.parametrize("spec_text", ["huber:1.0", "t:5"])
    def test_null_replicates_equal_serial_calls(self, spec_text):
        rep = _null_study(spec_text)
        m5, _ = _cycle_models("t:5")
        spec = make_spec(spec_text, 5)
        sigma1 = rep.summary["sigma1"]
        stats, log = [], []
        for r in range(NULL_ARGS["replicates"]):
            X = sample(m5, NULL_ARGS["n"], [NULL_ARGS["seed"], r])
            try:
                fit = m_estimate(X, spec)
            except ConvergenceError as exc:
                log.append((r, str(exc)))
                continue
            stats.append(deviance(fit.scatter, I5, I5_CHORD, NULL_ARGS["n"], sigma1).statistic)
        assert rep.metrics["deviance"][str(NULL_ARGS["n"])] == stats
        assert rep.failure_log == log

    @pytest.mark.parametrize("spec_text", ["huber:1.0", "t:5"])
    def test_equivalence_replicates_equal_serial_calls(self, spec_text):
        rep = _equiv_study(spec_text)
        _, m4 = _cycle_models("t:5")
        spec = make_spec(spec_text, 4)
        deltas = {str(n): [] for n in EQUIV_GRID}
        scatter_deltas = {str(n): [] for n in EQUIV_GRID}
        log = []
        for r in range(EQUIV_R):
            X_full = sample(m4, max(EQUIV_GRID), [7, r])
            for n in EQUIV_GRID:
                try:
                    fit_p = plug_in_estimate(X_full[:n], I4, spec)
                    fit_m = graphical_m_estimate(X_full[:n], I4, spec)
                except ConvergenceError as exc:
                    log.append((r, f"n={n}: {exc}"))
                    continue
                d_mu = float(np.linalg.norm(fit_p.mu - fit_m.mu))
                d_S = float(np.linalg.norm(fit_p.scatter - fit_m.scatter, ord="fro"))
                deltas[str(n)].append(np.sqrt(n) * (d_mu + d_S))
                scatter_deltas[str(n)].append(np.sqrt(n) * d_S)
        assert rep.metrics == {"delta": deltas, "scatter_delta": scatter_deltas}
        assert rep.failure_log == log

    def test_null_study_completes_chunks_not_replicates(self, monkeypatch):
        calls = []
        kernel = covsel._newton

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(covsel, "_newton", counted)
        m5, _ = _cycle_models("gaussian")
        deviance_null_study(I5, I5_CHORD, m5, make_spec("gaussian", 5), 200, 64, seed=3)
        assert len(calls) <= -(-64 // simulate._CHUNK)


class TestChunkFallback:
    """A replicate that fails leaves its chunk's stack inside the kernels, so
    no chunk reruns, and every replicate still gets its serial outcome."""

    @staticmethod
    def count_solves(monkeypatch):
        # the plug-in's plain solve is called from mest, the graphical one from simulate
        calls = []
        solve = mest._solve

        def counted(X, *args, **kwargs):
            calls.append(len(X))
            return solve(X, *args, **kwargs)

        for module in (mest, simulate):
            monkeypatch.setattr(module, "_solve", counted)
        return calls

    @pytest.fixture
    def outlier_at_3(self, monkeypatch):
        # replicate 3's first row is scaled by 1e10: its t fit loses definiteness
        draw = simulate._draw

        def draw_with_outlier(model, n, seed, root):
            X = draw(model, n, seed, root)
            if seed[1] == 3:
                X[0] *= 1e10
            return X

        monkeypatch.setattr(simulate, "_draw", draw_with_outlier)

    def test_failure_free_studies_rerun_nothing(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        chunks = -(-64 // simulate._CHUNK)
        m5, m4 = _cycle_models("t:5")
        rep = deviance_null_study(I5, I5_CHORD, m5, make_spec("t:5", 5), 100, 64, seed=3)
        assert rep.failures == 0 and len(calls) == chunks
        calls.clear()
        rep = equivalence_study(I4, m4, make_spec("t:5", 4), [30, 60], 64, seed=3)
        assert rep.failures == 0 and len(calls) == 2 * 2 * chunks

    @pytest.mark.filterwarnings("ignore:input matrix has condition number")
    def test_injected_failure_reruns_nothing(self, outlier_at_3, monkeypatch):
        # chunks of 5: each makes exactly the solves of a failure-free chunk
        monkeypatch.setattr(simulate, "_CHUNK", 5)
        calls = self.count_solves(monkeypatch)
        chunks = -(-64 // 5)
        m5, m4 = _cycle_models("t:5")
        rep = deviance_null_study(I5, I5_CHORD, m5, make_spec("t:5", 5), 100, 64, seed=3)
        assert rep.failures == 1 and calls == [5] * (chunks - 1) + [4]
        calls.clear()
        rep = equivalence_study(I4, m4, make_spec("t:5", 4), [30, 60], 64, seed=3)
        assert rep.failures == 2 and calls == ([5] * 4 * (chunks - 1) + [4] * 4)

    @pytest.mark.filterwarnings("ignore:input matrix has condition number")
    def test_injected_failure_in_null_study(self, outlier_at_3, monkeypatch):
        m5, _ = _cycle_models("t:5")
        spec = make_spec("t:5", 5)
        reports = []
        for chunk in (1, 5, simulate._CHUNK):
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            reports.append(deviance_null_study(I5, I5_CHORD, m5, spec, 100, 64, seed=3))
        stats, log = [], []
        for r in range(64):
            X = sample(m5, 100, [3, r])
            try:
                fit = m_estimate(X, spec)
            except ConvergenceError as exc:
                log.append((r, str(exc)))
                continue
            stats.append(deviance(fit.scatter, I5, I5_CHORD, 100,
                                  reports[0].summary["sigma1"]).statistic)
        assert [r for r, _ in log] == [3] and "lost positive definiteness" in log[0][1]
        for rep in reports:
            assert rep.failure_log == log
            assert rep.metrics["deviance"]["100"] == stats

    @pytest.mark.filterwarnings("ignore:input matrix has condition number")
    def test_injected_failure_in_equivalence_study(self, outlier_at_3, monkeypatch):
        _, m4 = _cycle_models("t:5")
        spec = make_spec("t:5", 4)
        reports = []
        for chunk in (1, 5, simulate._CHUNK):
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            reports.append(equivalence_study(I4, m4, spec, [40], 64, seed=3))
        deltas, log = [], []
        for r in range(64):
            X = sample(m4, 40, [3, r])
            try:
                fit_p = plug_in_estimate(X, I4, spec)
                fit_m = graphical_m_estimate(X, I4, spec)
            except ConvergenceError as exc:
                log.append((r, f"n=40: {exc}"))
                continue
            d_mu = float(np.linalg.norm(fit_p.mu - fit_m.mu))
            d_S = float(np.linalg.norm(fit_p.scatter - fit_m.scatter, ord="fro"))
            deltas.append(np.sqrt(40) * (d_mu + d_S))
        assert [r for r, _ in log] == [3] and "lost positive definiteness" in log[0][1]
        for rep in reports:
            assert rep.failure_log == log
            assert rep.metrics["delta"] == {"40": deltas}
