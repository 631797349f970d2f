"""The public surface: every name a module exports exists.

A name deleted from a module but left in its ``__all__`` breaks
``from agrm.<module> import *`` for every caller; these tests catch that
for each module of the package, including ones added later.
"""

import importlib
import pkgutil

import pytest

import agrm

MODULES = sorted(info.name for info in pkgutil.iter_modules(agrm.__path__))


def test_every_module_is_found():
    assert {"cli", "core", "data", "gradients", "head", "losses", "trainer"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"agrm.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    namespace = {}
    exec(f"from agrm.{name} import *", namespace)
    module = importlib.import_module(f"agrm.{name}")
    assert set(getattr(module, "__all__", [])) <= set(namespace)
