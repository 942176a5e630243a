import importlib
import pkgutil

import pytest

import stochexpand

MODULES = ["stochexpand"] + [f"stochexpand.{m.name}"
                             for m in pkgutil.iter_modules(stochexpand.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
