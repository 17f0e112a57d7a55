"""numpy, imported on first use.

``np`` is numpy itself when numpy is already imported, and otherwise a
deferred module that imports numpy on its first attribute access (the
``importlib.util.LazyLoader`` recipe of the importlib documentation).  The
exact paths of the package never touch it, so importing the package and
running the exact commands does not load numpy.  Package modules bind
``from ._numpy import np`` and must not also run ``import numpy``: on
CPython 3.11 that statement reads the deferred module's ``__spec__``, which
loads numpy at once.
"""

import importlib.util
import sys


def _deferred(name: str):
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


np = _deferred("numpy")
