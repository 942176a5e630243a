import ast
import importlib
import pathlib
import pkgutil

import pytest

import stochexpand

MODULES = ["stochexpand"] + [f"stochexpand.{m.name}"
                             for m in pkgutil.iter_modules(stochexpand.__path__)]
ROOT = pathlib.Path(__file__).resolve().parents[1]
# documented entry points that no pipeline code calls: README's reader of the CSV export
ENTRY_POINTS = {"tensor_from_csv"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def _statements(path):
    """(defined name or None, names and attributes it reads) of each top-level
    statement of a file but its __all__; a definition's references to its own
    name (recursion, a class naming itself) are left out."""
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in stmt.targets):
            continue
        name = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        refs = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                if isinstance(n, (ast.Name, ast.Attribute))}
        yield name, refs - {name}


def test_every_exported_name_is_reached_by_the_pipeline():
    # a public name stays if src/ outside its own definition or perfbench's runner
    # reads it, or if it is a documented entry point; a definition that nothing
    # reaches keeps nothing alive, so the references are taken to a fixed point
    src = [s for path in sorted((ROOT / "src" / "stochexpand").glob("*.py"))
           for s in _statements(path)]
    bench = set().union(*(refs for path in sorted((ROOT / "perfbench").glob("*.py"))
                          if not path.name.startswith("test_")
                          for _, refs in _statements(path)))
    exported = {attr for name in MODULES
                for attr in getattr(importlib.import_module(name), "__all__", ())}
    unreached = set()
    while True:
        reached = bench.union(*(refs for name, refs in src if name not in unreached))
        grown = exported - reached - ENTRY_POINTS
        if grown == unreached:
            break
        unreached = grown
    assert not unreached, f"no pipeline code reaches the exported names {sorted(unreached)}"
