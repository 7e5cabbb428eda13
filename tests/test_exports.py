"""Every name in an ``mjls`` module's ``__all__`` exists in that module, so
``from mjls.<module> import *`` never fails on a stale entry."""

import importlib
import pkgutil

import pytest

import mjls

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(mjls.__path__))


def test_modules_found():
    assert {"lmi", "synthesis"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(f"mjls.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"mjls.{name}.__all__ names {missing}, which the module does not define"
