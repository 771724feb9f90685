import importlib
import pkgutil

import pytest

import projlab

MODULES = ["projlab"] + [f"projlab.{m.name}" for m in pkgutil.iter_modules(projlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", []):
        assert hasattr(module, export), f"{name}.__all__ names missing {export!r}"
    exec(f"from {name} import *", {})
