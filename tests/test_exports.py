"""Every name a bandcross module exports in __all__ exists in it.

A stale export otherwise fails only on ``from bandcross.<module> import *``.
"""
import importlib
import pkgutil

import bandcross


def test_every_all_entry_exists():
    modules = [bandcross] + [
        importlib.import_module(f"bandcross.{info.name}")
        for info in pkgutil.iter_modules(bandcross.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []
