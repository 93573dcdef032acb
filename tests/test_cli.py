import json
import warnings

import numpy as np
import pytest

from egm import cli, inference, mest
from egm.graphs import Graph, build_index, read_graph, write_graph
from egm.inference import are_chordless_cycle, chordless_cycle_shape
from egm.mest import m_estimate, make_spec
from egm.simulate import EllipticalModel, sample

from _oracles import are_cell_oracle, read_data_oracle
from test_mest import near_collinear


def write_csv(path, X, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for row in np.atleast_2d(X):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture
def cycle4_files(tmp_path):
    K, S = chordless_cycle_shape(4, -0.3)
    model = EllipticalModel(np.zeros(4), S, "t:5")
    X = sample(model, 500, 1001)
    data = tmp_path / "X.csv"
    write_csv(data, X)
    graph = tmp_path / "cycle4.g"
    write_graph(Graph.cycle(4), graph)
    complete = tmp_path / "complete4.g"
    write_graph(Graph.complete(4), complete)
    return {"X": X, "data": data, "graph": graph, "complete": complete, "tmp": tmp_path}


def run_json(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestFit:
    def test_gaussian_complete_graph(self, cycle4_files, capsys):
        f = cycle4_files
        rc, payload = run_json(capsys, [
            "fit", "--data", str(f["data"]), "--graph", str(f["complete"]),
            "--estimator", "gaussian"])
        assert rc == 0
        X = f["X"]
        assert np.allclose(payload["plugin"]["mu"], X.mean(axis=0), atol=1e-12)
        Xc = X - X.mean(axis=0)
        S = np.array(payload["plugin"]["scatter"]["rows"])
        assert np.allclose(S, Xc.T @ Xc / len(X), atol=1e-12)
        diag = [payload["plugin"]["partial_correlations"]["rows"][i][i] for i in range(4)]
        assert diag == [None] * 4

    def test_method_both_on_t_data(self, cycle4_files, capsys):
        f = cycle4_files
        rc, payload = run_json(capsys, [
            "fit", "--data", str(f["data"]), "--graph", str(f["graph"]),
            "--estimator", "t:5", "--method", "both", "--family", "t:5"])
        assert rc == 0
        idx = build_index(Graph.cycle(4))
        S_plug = np.array(payload["plugin"]["scatter"]["rows"])
        S_graph = np.array(payload["graphical"]["scatter"]["rows"])
        plain = m_estimate(f["X"], make_spec("t:5", 4), tol=1e-9)
        # plug-in completion preserves the unconstrained edge/diagonal entries
        assert np.max(np.abs((S_plug - plain.scatter)[idx.k_mask])) <= 1e-8
        # loose echo of asymptotic equivalence at n=500
        assert np.max(np.abs(S_plug - S_graph)) <= 10.0 / np.sqrt(len(f["X"]))
        assert payload["scalars"]["sigma1"] > 1.0
        # the shared plug-in changes no bit of either block
        spec = make_spec("t:5", 4)
        assert payload["plugin"] == cli._fit_payload(mest.plug_in_estimate(f["X"], idx, spec))
        assert payload["graphical"] == cli._fit_payload(
            mest.graphical_m_estimate(f["X"], idx, spec))

    @pytest.mark.parametrize("estimator,what", [("t:abc", "t degrees of freedom"),
                                                ("huber:x", "huber threshold")])
    def test_unparsable_estimator_parameter_exit_1(self, cycle4_files, capsys, estimator, what):
        f = cycle4_files
        rc = cli.main(["fit", "--data", str(f["data"]), "--graph", str(f["graph"]),
                       "--estimator", estimator])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"egm: {what} in '{estimator}' is not a number; "
                                "accepted forms are gaussian, t:NU and huber:K\n")

    def test_sorted_stable_json(self, cycle4_files, capsys):
        f = cycle4_files
        argv = ["fit", "--data", str(f["data"]), "--graph", str(f["graph"]),
                "--estimator", "gaussian"]
        rc = cli.main(argv)
        first = capsys.readouterr().out
        rc = cli.main(argv)
        second = capsys.readouterr().out
        assert rc == 0 and first == second
        assert first == json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n"

    def test_malformed_row_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1.0,2.0\n3.0,oops\n", encoding="utf-8")
        graph = tmp_path / "g.g"
        write_graph(Graph.complete(2), graph)
        rc = cli.main(["fit", "--data", str(data), "--graph", str(graph),
                       "--estimator", "gaussian"])
        assert rc == 1
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, capsys, cell):
        data = tmp_path / "bad.csv"
        data.write_text(f"1.0,2.0\n3.0,4.0\n\n5.0,{cell}\n", encoding="utf-8")
        graph = tmp_path / "g.g"
        write_graph(Graph.complete(2), graph)
        rc = cli.main(["fit", "--data", str(data), "--graph", str(graph),
                       "--estimator", "gaussian"])
        assert rc == 1
        assert "row 4, column 2" in capsys.readouterr().err

    def test_lost_definiteness_exit_2(self, tmp_path, capsys):
        X = np.random.default_rng(0).standard_normal((100, 4))
        X[0] *= 1e10
        data = tmp_path / "X.csv"
        write_csv(data, X)
        graph = tmp_path / "g.g"
        write_graph(Graph.cycle(4), graph)
        rc = cli.main(["fit", "--data", str(data), "--graph", str(graph),
                       "--estimator", "t:5"])
        assert rc == 2
        assert "definiteness" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["plugin", "graphical", "both"])
    def test_lost_definiteness_in_completion_exit_2(self, tmp_path, capsys, method):
        # the Gaussian fit is SPD; its 4-cycle completion loses definiteness
        data = tmp_path / "X.csv"
        write_csv(data, near_collinear(1e8))
        graph = tmp_path / "g.g"
        write_graph(Graph.cycle(4), graph)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = cli.main(["fit", "--data", str(data), "--graph", str(graph),
                           "--estimator", "gaussian", "--method", method])
        assert rc == 2
        assert "completion lost positive definiteness" in capsys.readouterr().err

    def test_dimension_mismatch(self, cycle4_files, tmp_path, capsys):
        graph3 = tmp_path / "g3.g"
        write_graph(Graph.complete(3), graph3)
        rc = cli.main(["fit", "--data", str(cycle4_files["data"]),
                       "--graph", str(graph3), "--estimator", "gaussian"])
        assert rc == 1
        assert "4 columns" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        graph = tmp_path / "g.g"
        write_graph(Graph.complete(2), graph)
        rc = cli.main(["fit", "--data", str(tmp_path / "missing.csv"),
                       "--graph", str(graph), "--estimator", "gaussian"])
        assert rc == 1

    def test_non_convergence_exit_2(self, tmp_path, capsys):
        # on this draw the iteration never reaches an exact fixed point (it
        # stalls at the 1e-17 level), so an absurd tolerance exhausts the budget
        X = sample(EllipticalModel(np.zeros(3), np.eye(3), "t:5"), 1000, 4)
        data = tmp_path / "X.csv"
        write_csv(data, X)
        graph = tmp_path / "g.g"
        write_graph(Graph.complete(3), graph)
        rc = cli.main(["fit", "--data", str(data), "--graph", str(graph),
                       "--estimator", "t:5", "--tol", "1e-30"])
        assert rc == 2

    @pytest.mark.parametrize("method, tol", [("plugin", "nan"), ("plugin", "-1"),
                                             ("graphical", "nan")])
    def test_tolerance_not_finite_and_positive_exit_1(self, cycle4_files, capsys, method, tol):
        f = cycle4_files
        rc = cli.main(["fit", "--data", str(f["data"]), "--graph", str(f["graph"]),
                       "--estimator", "t:5", "--method", method, "--tol", tol])
        assert rc == 1
        assert "tol must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["t:nan", "huber:nan", "huber:inf"])
    def test_non_finite_estimator_parameter_exit_1(self, cycle4_files, capsys, estimator):
        f = cycle4_files
        rc = cli.main(["fit", "--data", str(f["data"]), "--graph", str(f["graph"]),
                       "--estimator", estimator])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, cycle4_files, capsys):
        rc = cli.main(["fit", "--data", str(cycle4_files["data"]),
                       "--graph", str(cycle4_files["graph"]),
                       "--estimator", "gaussian", "--frobulate"])
        assert rc == 1

    def test_header_flag(self, tmp_path, capsys):
        X = np.random.default_rng(6).standard_normal((60, 2))
        data = tmp_path / "X.csv"
        write_csv(data, X, header=["a", "b"])
        graph = tmp_path / "g.g"
        write_graph(Graph.complete(2), graph)
        rc, payload = run_json(capsys, ["fit", "--data", str(data), "--graph",
                                        str(graph), "--estimator", "gaussian",
                                        "--header"])
        assert rc == 0
        assert payload["n"] == 60

    def test_output_file(self, cycle4_files, tmp_path, capsys):
        out = tmp_path / "fit.json"
        rc = cli.main(["fit", "--data", str(cycle4_files["data"]),
                       "--graph", str(cycle4_files["graph"]),
                       "--estimator", "gaussian", "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "fit"


class TestReadData:
    """``cli.read_data`` against the ``csv.reader`` oracle: the same array,
    bit for bit, or the same error text, and never a warning."""

    CASES = {
        "empty": "",
        "blank_only": "\n  \n\t\n",
        "crlf": "1.5,2\r\n3,-4e-3\r\n",
        "crlf_blank_line": "1,2\r\n\r\n3,4\r\n",
        "whitespace_line": "1,2\n   \n3,4\n",
        "quoted_cell": '"1.25",2\n3,"4"\n',
        "spaces_around_cells": " 1 ,\t2 \n3 , 4\n",
        "no_trailing_newline": "1,2\n3,4",
        "one_column": "1\n2.5\n-3\n",
        "hash_line": "1,2\n# 3,4\n5,6\n",
        "hash_cell": "1,2\n#3,4\n",
        "quoted_header": '"a","b"\n1,2\n3,4\n',
        "header_quote_spans_lines": 'a,"b\n1,2\n3,4\n',
        "header_only": "a,b\n",
        "ragged": "1,2\n3\n",
        "empty_cell": "1,,2\n",
        "non_finite": "1,2\n3,inf\n",
        "overflow": "1,1e400\n",
        "underscore_digits": "1_0,2\n",
        "unit_separator": "1\x1f,2\n",
        "lone_cr": "1,2\r3,4\r",
    }

    @staticmethod
    def outcome(read, path, header):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                X = read(path, header)
            except ValueError as exc:
                return str(exc)
        return X.shape, X.dtype, X.tobytes()

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_csv_reader_oracle(self, tmp_path, name, header):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(self.CASES[name].encode("utf-8"))
        assert self.outcome(cli.read_data, path, header) == \
            self.outcome(read_data_oracle, path, header)

    def test_plain_file_skips_the_scan(self, tmp_path, monkeypatch):
        X = np.random.default_rng(3).standard_normal((3000, 4)) * 10.0 ** np.arange(-150, 150, 75)
        path = tmp_path / "X.csv"
        write_csv(path, X)
        expected = self.outcome(read_data_oracle, path, True)
        monkeypatch.setattr(cli, "_scan_data", None)
        assert np.array_equal(cli.read_data(path).view(np.int64), X.view(np.int64))
        assert self.outcome(cli.read_data, path, True) == expected

    @pytest.mark.parametrize("text", ["", "\n \n\n"])
    def test_no_rows_fit_message(self, tmp_path, capsys, text):
        data = tmp_path / "empty.csv"
        data.write_text(text, encoding="utf-8")
        graph = tmp_path / "g.g"
        write_graph(Graph.complete(2), graph)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["fit", "--data", str(data), "--graph", str(graph),
                           "--estimator", "gaussian"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"egm: {data}: no data rows\n"


class TestTest:
    def test_deviance_report(self, cycle4_files, capsys):
        f = cycle4_files
        rc, payload = run_json(capsys, [
            "test", "--data", str(f["data"]), "--graph0", str(f["graph"]),
            "--graph1", str(f["complete"]), "--estimator", "gaussian"])
        assert rc == 0
        assert payload["df"] == 2
        assert payload["sigma1"] == 1.0
        assert 0.0 <= payload["p_value"] <= 1.0

    def test_equal_graphs_exit_1(self, cycle4_files, capsys):
        f = cycle4_files
        rc = cli.main(["test", "--data", str(f["data"]), "--graph0", str(f["graph"]),
                       "--graph1", str(f["graph"]), "--estimator", "gaussian"])
        assert rc == 1

    def test_non_nested_names_edge(self, cycle4_files, tmp_path, capsys):
        other = tmp_path / "other.g"
        write_graph(Graph.from_edges(4, [(1, 3)]), other)
        rc = cli.main(["test", "--data", str(cycle4_files["data"]),
                       "--graph0", str(other), "--graph1", str(cycle4_files["graph"]),
                       "--estimator", "gaussian"])
        assert rc == 1
        assert "(1, 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma1", ["0", "-1", "nan", "inf"])
    def test_sigma1_not_finite_and_positive_exit_1(self, cycle4_files, capsys, sigma1):
        f = cycle4_files
        rc = cli.main(["test", "--data", str(f["data"]), "--graph0", str(f["graph"]),
                       "--graph1", str(f["complete"]), "--estimator", "t:5",
                       "--sigma1", sigma1])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "sigma1" in captured.err

    def test_sigma1_flag(self, cycle4_files, capsys):
        f = cycle4_files
        rc, payload = run_json(capsys, [
            "test", "--data", str(f["data"]), "--graph0", str(f["graph"]),
            "--graph1", str(f["complete"]), "--estimator", "t:5", "--sigma1", "1.2"])
        assert rc == 0 and payload["sigma1"] == 1.2


class TestSearch:
    def test_search_runs_and_writes_graph(self, tmp_path, capsys):
        X = sample(EllipticalModel(np.zeros(3), np.diag([1.0, 2.0, 1.5]), "gaussian"),
                   1500, 77)
        data = tmp_path / "X.csv"
        write_csv(data, X)
        gout = tmp_path / "final.g"
        rc, payload = run_json(capsys, [
            "search", "--data", str(data), "--estimator", "gaussian",
            "--alpha", "0.05", "--graph-out", str(gout)])
        assert rc == 0
        final = read_graph(gout)
        assert payload["edges"] == [list(e) for e in final.sorted_edges()]
        for step in payload["steps"]:
            assert set(step) == {"removed_edge", "deviance_delta", "p_value"}

    def test_estimator_failure_exits_2_with_partial_trail(self, tmp_path, capsys):
        # the initial fit stalls below machine precision, so an absurd
        # tolerance fails before any edge is tested
        X = sample(EllipticalModel(np.zeros(3), np.eye(3), "t:5"), 1000, 4)
        data = tmp_path / "X.csv"
        write_csv(data, X)
        out = tmp_path / "trail.json"
        rc = cli.main(["search", "--data", str(data), "--estimator", "t:5",
                       "--sigma1", "1.2", "--alpha", "0.05", "--tol", "1e-30",
                       "--output", str(out)])
        assert rc == 2
        payload = json.loads(out.read_text())
        assert payload["steps"] == []
        assert payload["final_graph"].startswith("p 3")
        assert "error" in payload

    @staticmethod
    def count_calls(monkeypatch, name, *modules):
        """Count the calls of ``mest.<name>``, patched where each module looks it up."""
        calls, original = [], getattr(mest, name)
        for module in modules:
            monkeypatch.setattr(module, name, lambda *a: calls.append(1) or original(*a))
        return calls

    def search_sigma1(self, files, capsys, estimator):
        rc, payload = run_json(capsys, [
            "search", "--data", str(files["data"]), "--estimator", estimator,
            "--family", "t:5", "--alpha", "0.05"])
        assert rc == 0
        return payload["sigma1"]

    def test_sigma1_resolved_once(self, cycle4_files, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, "scalars_for", mest, inference)
        sigma1 = self.search_sigma1(cycle4_files, capsys, "t:5")
        assert len(calls) == 1
        assert sigma1 == mest.scalars_for(make_spec("t:5", 4), "t:5", 4).sigma1

    def test_sigma1_by_quadrature_resolved_once(self, cycle4_files, capsys, monkeypatch):
        # Huber scalars at the t family still integrate, once per search
        calls = self.count_calls(monkeypatch, "m_scalars", mest)
        sigma1 = self.search_sigma1(cycle4_files, capsys, "huber:1.345")
        assert len(calls) == 1
        assert sigma1 == mest.scalars_for(make_spec("huber:1.345", 4), "t:5", 4).sigma1

    @pytest.mark.parametrize("flag,value", [("--sigma1", "0"), ("--sigma1", "-1"),
                                            ("--sigma1", "nan"), ("--alpha", "nan"),
                                            ("--alpha", "-0.5"), ("--alpha", "2")])
    def test_rejected_sigma1_or_alpha_exit_1(self, cycle4_files, capsys, flag, value):
        argv = ["search", "--data", str(cycle4_files["data"]), "--estimator", "gaussian",
                "--alpha", "0.05", flag, value]
        assert cli.main(argv) == 1
        assert capsys.readouterr().out == ""

    def test_search_deterministic(self, tmp_path, capsys):
        X = sample(EllipticalModel(np.zeros(3), np.eye(3), "gaussian"), 800, 3)
        data = tmp_path / "X.csv"
        write_csv(data, X)
        argv = ["search", "--data", str(data), "--estimator", "gaussian",
                "--alpha", "0.1"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        assert capsys.readouterr().out == first


class TestAreTable:
    def test_c_zero_row(self, capsys):
        rc, payload = run_json(capsys, ["are-table", "--c-list", "0",
                                        "--p-list", "4", "7", "12", "--format", "json"])
        assert rc == 0
        assert payload["are"] == [[1.0, 1.0, 1.0]]

    def test_p3_rejected(self, capsys):
        assert cli.main(["are-table", "--p-list", "3"]) == 1

    def test_large_c_rejected(self, capsys):
        assert cli.main(["are-table", "--c-list", "-0.5", "--p-list", "4"]) == 1

    def test_csv_format(self, capsys):
        rc = cli.main(["are-table", "--c-list", "-0.3", "--p-list", "7",
                       "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "c,7"
        assert out.splitlines()[1] == "-0.3,1.23"

    def test_text_format(self, capsys):
        rc = cli.main(["are-table", "--c-list", "-0.49", "--p-list", "5"])
        out = capsys.readouterr().out
        assert rc == 0 and "2.27" in out

    def test_p4_cells_are_closed_form(self):
        # the 4-cycle efficiency is exactly 1 + 2c^2
        for c in cli.DEFAULT_C_LIST:
            assert abs(are_chordless_cycle(4, c).are - (1.0 + 2.0 * c * c)) <= 1e-12

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_half_cell_rounds_up_whatever_its_last_bit(self, capsys, monkeypatch, step):
        # ARE(4, -0.05) = 1.005 lies on the rounding boundary; neither
        # neighbouring double may flip the rendered cell
        x = 1.005
        if step:
            x = float(np.nextafter(1.005, 2.0 if step > 0 else 0.0))
        monkeypatch.setattr(cli.inference, "_are_cycle_table",
                            lambda p, cs: [type("R", (), {"are": x})() for c in cs])
        argv = ["are-table", "--c-list", "-0.05", "--p-list", "4"]
        rc, payload = run_json(capsys, argv + ["--format", "json"])
        assert rc == 0 and payload["are"] == [[1.01]]
        assert cli.main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "-0.05,1.01"

    @pytest.mark.parametrize("p_list, c_list", [(["5", "3"], ["0.1", "0.6"]),
                                                (["5", "4"], ["0.1", "0.6"]),
                                                (["3", "5"], ["0.6", "0.1"])])
    def test_first_bad_cell_in_row_order_names_the_error(self, capsys, p_list, c_list):
        with pytest.raises(ValueError) as first:
            for c in map(float, c_list):
                for p in map(int, p_list):
                    are_cell_oracle(p, c)
        assert cli.main(["are-table", "--p-list", *p_list, "--c-list", *c_list]) == 1
        assert capsys.readouterr().err == f"egm: {first.value}\n"


class TestStudy:
    def make_cycle_fixture(self, tmp_path, p=4, c=-0.25):
        K, S = chordless_cycle_shape(p, c)
        shape = tmp_path / "shape.csv"
        write_csv(shape, S)
        g0 = tmp_path / "g0.g"
        write_graph(Graph.cycle(p), g0)
        g1 = tmp_path / "g1.g"
        write_graph(Graph.cycle(p).with_edge(1, 3), g1)
        return shape, g0, g1

    def test_equivalence_study(self, tmp_path, capsys):
        shape, g0, _ = self.make_cycle_fixture(tmp_path)
        rc, payload = run_json(capsys, [
            "study", "--kind", "equivalence", "--graph", str(g0),
            "--family", "gaussian", "--estimator", "gaussian",
            "--shape-csv", str(shape), "--n-grid", "100", "200",
            "--replicates", "3", "--seed", "6"])
        assert rc == 0
        assert payload["kind"] == "equivalence"
        assert payload["failures"] == 0 and payload["failure_log"] == []
        assert set(payload["summary"]["median_delta"]) == {"100", "200"}

    def test_deviance_null_study_with_csv(self, tmp_path, capsys):
        shape, g0, g1 = self.make_cycle_fixture(tmp_path)
        csv_out = tmp_path / "per_rep.csv"
        rc, payload = run_json(capsys, [
            "study", "--kind", "deviance-null", "--graph", str(g0),
            "--graph1", str(g1), "--family", "gaussian", "--estimator", "gaussian",
            "--shape-csv", str(shape), "--n", "200", "--replicates", "10",
            "--seed", "2"])
        assert rc == 0
        assert payload["summary"]["df"] == 1
        assert len(payload["metrics"]["deviance"]["200"]) == 10
        rc2 = cli.main([
            "study", "--kind", "deviance-null", "--graph", str(g0),
            "--graph1", str(g1), "--family", "gaussian", "--estimator", "gaussian",
            "--shape-csv", str(shape), "--n", "200", "--replicates", "10",
            "--seed", "2", "--csv-out", str(csv_out)])
        capsys.readouterr()
        assert rc2 == 0
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "metric,group,replicate,value"
        assert len(lines) == 11

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        shape, g0, g1 = self.make_cycle_fixture(tmp_path)
        argv = ["study", "--kind", "deviance-null", "--graph", str(g0),
                "--graph1", str(g1), "--family", "gaussian", "--estimator",
                "gaussian", "--shape-csv", str(shape), "--n", "150",
                "--replicates", "5"]
        monkeypatch.setenv("EGM_SEED", "31")
        cli.main(argv)
        via_env = capsys.readouterr().out
        monkeypatch.delenv("EGM_SEED")
        cli.main(argv + ["--seed", "31"])
        via_flag = capsys.readouterr().out
        assert via_env == via_flag

    def test_env_seed_not_an_integer_exit_1(self, tmp_path, capsys, monkeypatch):
        shape, g0, g1 = self.make_cycle_fixture(tmp_path)
        monkeypatch.setenv("EGM_SEED", "abc")
        rc = cli.main(["study", "--kind", "deviance-null", "--graph", str(g0),
                       "--graph1", str(g1), "--family", "gaussian", "--estimator",
                       "gaussian", "--shape-csv", str(shape), "--n", "150",
                       "--replicates", "5"])
        assert rc == 1
        assert capsys.readouterr().err == "egm: EGM_SEED must be an integer, got 'abc'\n"

    def test_study_missing_n_rejected(self, tmp_path, capsys):
        shape, g0, _ = self.make_cycle_fixture(tmp_path)
        rc = cli.main(["study", "--kind", "equivalence", "--graph", str(g0),
                       "--family", "gaussian", "--estimator", "gaussian",
                       "--shape-csv", str(shape), "--replicates", "2"])
        assert rc == 1

    def test_failure_cap_exit_2(self, tmp_path, capsys):
        shape, g0, _ = self.make_cycle_fixture(tmp_path)
        rc = cli.main(["study", "--kind", "equivalence", "--graph", str(g0),
                       "--family", "t:5", "--estimator", "t:5",
                       "--shape-csv", str(shape), "--n", "40",
                       "--replicates", "2", "--seed", "3", "--tol", "1e-17"])
        assert rc == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, replicates", [
        ("deviance-null", "0"), ("deviance-null", "-3"),
        ("equivalence", "0"), ("equivalence", "-3")])
    def test_bad_replicate_count_exit_1(self, tmp_path, capsys, kind, replicates):
        shape, g0, g1 = self.make_cycle_fixture(tmp_path)
        rc = cli.main(["study", "--kind", kind, "--graph", str(g0), "--graph1", str(g1),
                       "--family", "gaussian", "--estimator", "gaussian",
                       "--shape-csv", str(shape), "--n", "100",
                       "--replicates", replicates, "--seed", "1"])
        assert rc == 1
        assert "at least one replicate" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["deviance-null", "equivalence"])
    def test_negative_seed_exit_1(self, tmp_path, capsys, kind):
        shape, g0, g1 = self.make_cycle_fixture(tmp_path)
        rc = cli.main(["study", "--kind", kind, "--graph", str(g0), "--graph1", str(g1),
                       "--family", "gaussian", "--estimator", "gaussian",
                       "--shape-csv", str(shape), "--n", "100",
                       "--replicates", "2", "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "egm: seed must be an integer >= 0, got seed=-1\n"

    def test_repeated_n_exit_1(self, tmp_path, capsys):
        shape, g0, _ = self.make_cycle_fixture(tmp_path)
        rc = cli.main(["study", "--kind", "equivalence", "--graph", str(g0),
                       "--family", "gaussian", "--estimator", "gaussian",
                       "--shape-csv", str(shape), "--n-grid", "100", "100",
                       "--replicates", "3", "--seed", "1"])
        assert rc == 1
        assert "distinct" in capsys.readouterr().err

    def test_study_misspecified_shape_exit_1(self, tmp_path, capsys):
        # a dense shape matrix violates the cycle pattern
        _, g0, _ = self.make_cycle_fixture(tmp_path)
        dense = tmp_path / "dense.csv"
        write_csv(dense, np.eye(4) + 0.4 * (np.ones((4, 4)) - np.eye(4)))
        rc = cli.main(["study", "--kind", "equivalence", "--graph", str(g0),
                       "--family", "gaussian", "--estimator", "gaussian",
                       "--shape-csv", str(dense), "--n", "100",
                       "--replicates", "2", "--seed", "1"])
        assert rc == 1
        assert "absent edges" in capsys.readouterr().err
