import importlib
import pkgutil

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
