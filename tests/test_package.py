import importlib
import pkgutil

import pytest

import egm

MODULES = ["egm"] + [f"egm.{m.name}" for m in pkgutil.iter_modules(egm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # tools that wrap the public API look every listed name up
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []

