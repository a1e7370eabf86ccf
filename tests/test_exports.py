"""Each public name has one spelling: a module's `__all__` lists only names
it defines, so no function or class is exported from two modules."""

import importlib
import inspect
import pkgutil

import pytest

import mmwavesim

MODULES = [f"mmwavesim.{info.name}" for info in pkgutil.iter_modules(mmwavesim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_the_module_defines(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"{name}.__all__ lists missing {export}"
        obj = getattr(module, export)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == name, f"{name}.__all__ re-exports {obj.__module__}.{export}"
