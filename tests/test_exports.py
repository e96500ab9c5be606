import importlib
import pkgutil

import pytest

import lps

MODULES = sorted(m.name for m in pkgutil.iter_modules(lps.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry would otherwise fail only on `import *`
    module = importlib.import_module(f"lps.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"lps.{name}.__all__ names missing attributes: {missing}"
