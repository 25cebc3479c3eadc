"""Modules loaded on first use, so that paths without array work never load numpy."""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The top-level module ``name``, executed on its first attribute access.

    An already loaded module is returned as it is.  Otherwise the module object
    goes into sys.modules unexecuted, so every later ``import name`` gets the
    same object, and that import or the first attribute read runs it.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
