import importlib
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import egm
from egm.graphs import Graph, write_graph

MODULES = ["egm"] + [f"egm.{m.name}" for m in pkgutil.iter_modules(egm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # tools that wrap the public API look every listed name up
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def scipy_after(code, *argv):
    """The scipy modules loaded in a fresh process that runs ``code``."""
    src = os.path.dirname(os.path.dirname(egm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", "import sys; " + code, *argv], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy_stats():
    # loading scipy would be most of the CLI's start-up time; egm imports
    # scipy only inside the functions that use it
    assert scipy_after("import egm") == "[]"
    assert scipy_after("import egm.cli; egm.cli.build_parser()") == "[]"


def run_cli(*argv):
    return scipy_after("import egm.cli; assert egm.cli.main(sys.argv[1:]) == 0", *argv)


def test_t_mle_fit_leaves_out_scipy(tmp_path):
    # the t:5 scalars at the t:5 family are in closed form: no quadrature
    data, graph = tmp_path / "X.csv", tmp_path / "cycle4.g"
    np.savetxt(data, np.random.default_rng(3).standard_normal((200, 4)), delimiter=",")
    write_graph(Graph.cycle(4), graph)
    assert run_cli("fit", "--data", str(data), "--graph", str(graph), "--method", "both",
                   "--estimator", "t:5", "--family", "t:5",
                   "--output", str(tmp_path / "fit.json")) == "[]"


def test_are_table_leaves_out_scipy(tmp_path):
    assert run_cli("are-table", "--format", "json", "--output", str(tmp_path / "are.json")) == "[]"
