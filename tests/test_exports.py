import importlib
import pkgutil

import pytest

import pixtext

MODULES = sorted(m.name for m in pkgutil.iter_modules(pixtext.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"pixtext.{name}")
    assert hasattr(module, "__all__"), f"pixtext.{name} declares no __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"pixtext.{name}.__all__ lists undefined names {missing}"
