"""Every name a ``loctrack`` module lists in ``__all__`` is defined there."""

import importlib
import pkgutil

import pytest

import loctrack

MODULES = [
    module
    for info in sorted(pkgutil.iter_modules(loctrack.__path__), key=lambda i: i.name)
    if hasattr(module := importlib.import_module(f"loctrack.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_public_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists undefined {missing}"
