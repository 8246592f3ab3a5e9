"""The package surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import bandit_mips

MODULES = ["bandit_mips"] + [
    f"bandit_mips.{info.name}" for info in pkgutil.iter_modules(bandit_mips.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
