"""numpy, imported on first use.

``np`` is numpy itself when numpy is already imported, and otherwise a
deferred module that imports numpy on its first attribute access.  The
exact paths of the package never touch it, so importing the package and
running the exact commands does not load numpy.  Package modules bind
``from ._numpy import np`` and must not also run ``import numpy``: on
CPython 3.11 that statement reads the deferred module's ``__spec__``, which
loads numpy at once.

The first access executes numpy under a lock and only then makes ``np`` a
plain module, so a thread that arrives meanwhile waits for the lock rather
than read a half-executed numpy (``importlib.util.LazyLoader`` on CPython
3.11 hands it one).  After that, ``np.<name>`` is a plain module lookup.
"""

import importlib.util
import sys
import threading
import types

_LOCK = threading.RLock()
#: the deferred module whose execution is under way, in the thread that
#: holds the lock; numpy's own imports read it as it stands
_executing = []


class _Deferred(types.ModuleType):
    def __getattribute__(self, attr):
        with _LOCK:
            if type(self) is _Deferred and not _executing:
                _executing.append(self)
                try:
                    spec = types.ModuleType.__getattribute__(self, "__spec__")
                    spec.loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _executing.clear()
        return types.ModuleType.__getattribute__(self, attr)


def _deferred(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Deferred
    sys.modules[name] = module
    return module


np = _deferred("numpy")
