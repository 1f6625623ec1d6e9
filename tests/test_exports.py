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


def test_calderon_apply_stacks_its_fields_once():
    # the public range measures stack their fields; the contour measures the stack it has
    assert _calls_by_function(Path(katokit.__file__).resolve().parent / "calculus.py", "range_diameter") == []


def _scopes_holding(path, matches):
    """Qualified names of the functions and classes in `path` that directly hold a node `matches` accepts."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(ast.parse(path.read_text()), "")
    return sorted(found)


def test_suites_take_every_worst_value_through_one_rule():
    # max(0.0, *values) drops a NaN that is not first; `_worst` keeps it
    def zero_first_max(node):
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "max"
            and bool(node.args)
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == 0.0
        )

    path = Path(katokit.__file__).resolve().parent / "cli.py"
    assert _scopes_holding(path, zero_first_max) == []


def test_only_the_norm_spec_judges_lattice_coverage():
    # every AmalgamNormSpec, however built, has Gamma-translates that cover the torus
    def folds(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lattice_fold"

    path = Path(katokit.__file__).resolve().parent / "kato.py"
    assert _scopes_holding(path, folds) == ["AmalgamNormSpec.__post_init__"]


def test_only_the_grid_spec_reads_the_size_limits():
    # a stored header is judged by GridSpec's gates, not by copies of them
    def reads_limit(node):
        return isinstance(node, ast.Name) and node.id in ("_MAX_DIM", "_MAX_POINTS") and isinstance(node.ctx, ast.Load)

    path = Path(katokit.__file__).resolve().parent / "grid.py"
    assert _scopes_holding(path, reads_limit) == ["GridSpec.__post_init__"]
