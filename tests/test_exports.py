"""Each public name has one spelling: a module's `__all__` lists only names
it defines, so no function or class is exported from two modules; and each
module reads every name it imports."""

import ast
import importlib
import inspect
import pathlib
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


SOURCES = sorted(pathlib.Path(mmwavesim.__file__).parent.glob("*.py"))
# the names a module imports only for its importers to read
RE_EXPORTS = {"__init__.py": {"parse_config_text"}}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert imported - read - RE_EXPORTS.get(path.name, set()) == set()
