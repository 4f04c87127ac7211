"""Every name in a module's ``__all__`` resolves.

Tooling walks these lists with ``getattr`` (the benchmark's tracer wraps
each exported callable, and ``from lsnpc.x import *`` imports them), so a
stale entry left behind by a deleted function breaks it.
"""

import importlib
import pkgutil

import pytest

import lsnpc

MODULES = ["lsnpc", *sorted(f"lsnpc.{m.name}" for m in pkgutil.iter_modules(lsnpc.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
