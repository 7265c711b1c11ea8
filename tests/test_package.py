"""Every name a csmoe module exports through ``__all__`` exists.

A stale export only fails at ``from csmoe.x import *``; this catches it at
test time instead.
"""

import importlib
import pkgutil

import pytest

import csmoe

MODULES = sorted(info.name for info in pkgutil.iter_modules(csmoe.__path__))


def test_every_module_is_listed():
    assert "stages" in MODULES and "cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"csmoe.{name}")
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == [], f"csmoe.{name}.__all__ lists undefined names {missing}"
