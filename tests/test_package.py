import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import egm

MODULES = ["egm"] + [f"egm.{m.name}" for m in pkgutil.iter_modules(egm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # tools that wrap the public API look every listed name up
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_cli_import_leaves_out_scipy_stats():
    # importing scipy.stats would be most of the CLI's start-up time; egm
    # takes its distribution functions from scipy.special instead
    src = os.path.dirname(os.path.dirname(egm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, egm.cli; egm.cli.build_parser(); print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
