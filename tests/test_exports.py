"""Public names: the package's star import and every module's ``__all__``."""

import importlib
import pkgutil

import pytest

import gcstates

MODULES = sorted(m.name for m in pkgutil.iter_modules(gcstates.__path__))


def test_star_import_binds_every_package_name():
    namespace = {}
    exec("from gcstates import *", namespace)
    assert set(gcstates.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_resolves(name):
    module = importlib.import_module(f"gcstates.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
