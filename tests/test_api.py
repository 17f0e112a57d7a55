"""Every public name resolves: each module's ``__all__``, each name the
package re-exports and each name the benchmark's tracer binds.  The
package source holds no dead code: every import is used or exported, and
every private module-level name is referenced."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import postlie_sl2
import postlie_sl2.cli  # the tracer wraps cli.main

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


def test_benchmark_tracer_binds_its_names():
    # bench/tracing.py wraps public functions and Mat3 methods by name, so
    # deleting one of them breaks every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = {name: getattr(postlie_sl2, name) for name in ("classify", "multistart", "newton_solve")}
    tracer = tracing.Tracer(postlie_sl2)
    try:
        tracer.install()
        for name, fn in originals.items():
            assert getattr(postlie_sl2, name).__wrapped__ is fn
    finally:
        tracer.uninstall()
    assert {name: getattr(postlie_sl2, name) for name in originals} == originals


PACKAGE_DIR = Path(postlie_sl2.__file__).parent
SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(PACKAGE_DIR.glob("*.py"))
}


def _loaded_names(tree):
    """Names read anywhere in ``tree``, string annotations included, and
    attribute names, which is how other modules reach a module's names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.arg, ast.FunctionDef)):
            note = node.annotation if isinstance(node, ast.arg) else node.returns
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _loaded_names(ast.parse(note.value, mode="eval"))
    return names


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("name", sorted(set(SOURCES) - {"__init__"}))
def test_every_import_is_used_or_exported(name):
    tree = SOURCES[name]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    unused = imported - _loaded_names(tree) - _declared_all(tree)
    assert not unused, f"postlie_sl2.{name} imports unused {sorted(unused)}"


def test_every_private_name_is_referenced():
    referenced = set()
    for tree in SOURCES.values():
        referenced |= _loaded_names(tree)
        referenced |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    dead = []
    for name, tree in SOURCES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [
                f"{name}.{d}"
                for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in referenced
            ]
    assert not dead, f"private names never referenced: {dead}"
