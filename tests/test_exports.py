"""Every name a katokit module lists in `__all__` exists on that module, and
every name it imports is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import katokit

MODULES = ["katokit"] + sorted(f"katokit.{m.name}" for m in pkgutil.iter_modules(katokit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


SOURCES = sorted(Path(katokit.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # a deletion that leaves an import behind fails here; names a module
    # re-exports through `__all__` count as used
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if _assigns(node, "__all__") for name in ast.literal_eval(node.value)}
    assert sorted(imported - used - exported) == []


def _assigns(node, name):
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "grid.py"], ids=lambda p: p.name)
def test_only_grid_decides_the_mollifier(path):
    # the kernel's radius and the epsilons it may take are decided in `grid`;
    # every other module builds the kernel it uses with `make_mollifier`
    tree = ast.parse(path.read_text())
    named = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "MOLLIFIER_RADIUS")
        or (isinstance(node, ast.Attribute) and node.attr == "MOLLIFIER_RADIUS")
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "MOLLIFIER_RADIUS" for alias in node.names))
    ]
    called = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "rescaled"
    ]
    assert (named, called) == ([], [])


def _calls_by_function(path, callee):
    """Names of the functions in `path` whose bodies call `callee`."""
    tree = ast.parse(path.read_text())
    return sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == callee
            for node in ast.walk(fn)
        )
    )


def test_only_weights_lays_out_the_blocks():
    # the axes of each block are decided by `MultiOrder.block_axes`, which
    # the one block-weight formula and every per-block loop read
    definers = [
        path.name
        for path in SOURCES
        if any(isinstance(node, ast.FunctionDef) and node.name == "block_axes" for node in ast.walk(ast.parse(path.read_text())))
    ]
    assert definers == ["weights.py"]


def test_only_quantize_reads_tau():
    # an operator is its matrix: tau is validated where it is used
    callers = {path.name: _calls_by_function(path, "_tau_matrix") for path in SOURCES}
    assert {name: fns for name, fns in callers.items() if fns} == {"psido.py": ["quantize"]}


def test_calculus_measures_the_range_distance_once():
    # one loop over the domain factors takes every complement distance
    assert _calls_by_function(Path(katokit.__file__).resolve().parent / "calculus.py", "complement_distance") == [
        "_range_distance"
    ]
