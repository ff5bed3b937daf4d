import ast
import importlib
import inspect
import pkgutil
import textwrap

import pytest

import regretkit
import regretkit.efg


def _modules():
    names = [regretkit.__name__, regretkit.efg.__name__]
    for package in (regretkit, regretkit.efg):
        names += [f"{package.__name__}.{info.name}"
                  for info in pkgutil.iter_modules(package.__path__)]
    return sorted(set(names))


@pytest.mark.parametrize("name", _modules())
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


@pytest.mark.parametrize("name", _modules())
def test_every_exported_function_and_class_has_its_own_docstring(name):
    """A docstring written at the definition: not inherited, and not the
    signature ``dataclass`` fills in."""
    module = importlib.import_module(name)
    missing = []
    for export in getattr(module, "__all__", ()):
        obj = getattr(module, export)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            definition = ast.parse(textwrap.dedent(inspect.getsource(obj)))
            if not ast.get_docstring(definition.body[0]):
                missing.append(export)
    assert not missing, f"{name}: no docstring of their own: {missing}"


def test_efg_exports_every_submodule_export():
    names = [export for module in (regretkit.efg.builders, regretkit.efg.rounds,
                                   regretkit.efg.tree, regretkit.efg.values)
             for export in module.__all__]
    assert [name for name in names if not hasattr(regretkit.efg, name)] == []
    assert sorted(regretkit.efg.__all__) == sorted(names)
