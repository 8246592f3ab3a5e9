"""The package surface: every name a module exports resolves, and the package
exports exactly what its modules declare."""

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


def test_package_exports_each_module_surface_once():
    submodules = [importlib.import_module(name) for name in MODULES[1:]]
    declared = [export for module in submodules for export in getattr(module, "__all__", ())]
    assert len(set(declared)) == len(declared)
    assert sorted(bandit_mips.__all__) == sorted(declared)
    for module in submodules:
        for export in getattr(module, "__all__", ()):
            assert getattr(bandit_mips, export) is getattr(module, export), export
