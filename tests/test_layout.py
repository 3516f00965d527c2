"""Structural rules of the package source, read from its syntax trees.

Each input rule has one owner: the length, particle-count, level-count and
at-least-one-entry errors are raised once, in ``core``. The exact-enumeration
cap is one constant, not a parameter, and ``core`` imports nothing that loads
numpy. Every error class below the families names a rule of ``core``; other
modules raise a family. Only ``combinatorics`` applies the cap.
"""

import ast
from pathlib import Path

import pytest

import boltzkit

PACKAGE = Path(boltzkit.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def _raised(tree: ast.AST, name: str) -> int:
    """How many ``raise name(...)`` statements the tree holds."""
    return sum(
        isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name) and node.exc.func.id == name
        for node in ast.walk(tree)
    )


@pytest.mark.parametrize("error", ["LengthMismatch", "NonPositiveN", "InvalidCount",
                                   "ZeroLevels"])
def test_rule_errors_are_raised_once_in_core(error):
    assert {module: _raised(tree, error) for module, tree in TREES.items()
            if _raised(tree, error)} == {"core": 1}


FAMILIES = {"BoltzkitError", "ValidationError", "NumericError", "InfeasibleError"}


def test_rule_classes_are_raised_in_core_and_families_elsewhere():
    defined = {node.name for node in TREES["errors"].body
               if isinstance(node, ast.ClassDef)}
    rules = defined - FAMILIES
    assert FAMILIES <= defined
    assert {name for name in rules if _raised(TREES["core"], name)} == rules
    assert [f"{module}: {name}" for module, tree in TREES.items() if module != "core"
            for name in sorted(rules) if _raised(tree, name)] == []


def test_no_cap_or_digits_parameter():
    found = [
        f"{module}.{node.name}({arg.arg})"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.arg in ("cap", "digits")
    ]
    assert found == []


def test_only_combinatorics_applies_the_size_cap():
    callers = {
        module for module, tree in TREES.items() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "require_within_cap"
    }
    assert callers == {"combinatorics"}


def _imports(module: str) -> set[str]:
    """Top-level names a module imports at load time: absolute ones by their
    first component, package-relative ones as ``.name``."""
    names = set()
    for node in TREES[module].body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." + (node.module or "") if node.level else
                      node.module.split(".")[0])
    return names


def test_core_imports_no_numpy():
    # import boltzkit.core loads the package __init__, core and what core
    # imports from the package at module level, transitively
    seen, todo = set(), ["__init__", "core"]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        imports = _imports(module)
        assert "numpy" not in imports, module
        todo.extend(name[1:] for name in imports if name.startswith("."))
    assert seen == {"__init__", "core", "errors"}
