"""Every public name resolves: each module's ``__all__`` and each name the
package re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import postlie_sl2

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(postlie_sl2.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"postlie_sl2.{name}")
    for public in getattr(module, "__all__", ()):
        assert hasattr(module, public), f"postlie_sl2.{name}.__all__ names missing {public!r}"


def test_package_reexports_resolve():
    tree = ast.parse(Path(postlie_sl2.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"postlie_sl2.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(postlie_sl2, name) is getattr(module, alias.name), name
