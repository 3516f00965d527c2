"""Structural rules of the package source, read from its syntax trees.

Each input rule has one owner: the length, count (particle, level, part,
truncation, total and occupation alike) and at-least-one-entry errors are
raised once, in ``core``, by message. ``errors`` defines the three families
and their base, nothing more. The exact-enumeration cap is one constant, not
a parameter, and ``core`` imports nothing that loads numpy. Only
``combinatorics`` applies the cap, only ``core._fsum`` sums an array
exactly, only ``equilibrium._family_arrays`` finds the support mask, and only
``combinatorics._integer_priors`` puts exact priors over their common
denominator; the oracle decides without the tests' reference
``macrostate_probability_exact``.
The kernel's internals stay in ``equilibrium``: the CLI reaches it through
``generalized_distribution``, ``solve_beta`` and the grid ``_sweep`` only.
A frozen value type converts and checks its fields in its own constructor,
so no caller builds a ``Dimensionality`` for ``OscillatorModel``.
"""

import ast
import re
from pathlib import Path

import pytest

import boltzkit

PACKAGE = Path(boltzkit.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def _raises(node: ast.AST, owner: str):
    """(qualified name of the enclosing function, raise statement) pairs."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _raises(child, f"{owner}.{child.name}")
        elif isinstance(child, ast.Raise):
            yield owner, child
        else:
            yield from _raises(child, owner)


#: Each raise of the package with the string literals of its message.
RAISES = [
    (owner, " ".join(node.value for node in ast.walk(statement.exc)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)))
    for module, tree in TREES.items()
    for owner, statement in _raises(tree, module) if statement.exc is not None
]


@pytest.mark.parametrize("message, owner", [
    ("length mismatch", "core._same_length"),
    ("is not an integer >=", "core._size"),
])
def test_rule_messages_are_raised_once_in_core(message, owner):
    assert [where for where, text in RAISES if message in text] == [owner]


def test_one_raise_site_for_an_empty_input():
    # a vector, spectrum or macrostate without entries is refused by
    # core._some_levels, with the message its caller names
    named = sorted(
        ast.literal_eval(call.args[1]) for tree in TREES.values()
        for call in ast.walk(tree) if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name) and call.func.id == "_some_levels"
    )
    assert named == ["macrostate needs at least one level",
                     "probability vector needs at least one entry",
                     "spectrum needs at least one energy level"]
    empty = [
        f"{module}.{function.name}" for module, tree in TREES.items()
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function) if isinstance(node, ast.Compare)
        and re.fullmatch(r"len\(.*\) == 0", ast.unparse(node))
    ]
    assert empty == ["core._some_levels"]
    assert [where for where, text in RAISES if "needs at least one" in text] == [
        "entropy.stirling_entropy"]  # a macrostate of zero particles
    some_levels = next(f for f in TREES["core"].body
                       if isinstance(f, ast.FunctionDef) and f.name == "_some_levels")
    assert [ast.unparse(node) for node in ast.walk(some_levels)
            if isinstance(node, ast.Raise)] == ["raise ValidationError(message)"]


def test_errors_defines_the_families_only():
    assert [node.name for node in TREES["errors"].body
            if isinstance(node, ast.ClassDef)] == [
        "BoltzkitError", "ValidationError", "NumericError", "InfeasibleError"]


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


def test_one_cap_constant():
    caps = [
        f"{module}.{name.id}" for module, tree in TREES.items()
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and name.id.endswith("_CAP")
    ]
    assert caps == ["combinatorics.DEFAULT_SIZE_CAP"]


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


def test_one_exact_array_sum():
    # an exact sum over an array is core._fsum's; no other function makes a
    # list of an array for math.fsum
    found = [
        f"{module}.{func.name}" for module, tree in TREES.items()
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "fsum"
        and any(isinstance(sub, ast.Attribute) and sub.attr == "tolist"
                for arg in node.args for sub in ast.walk(arg))
    ]
    assert set(found) == {"core._fsum"}


def test_one_integer_system_for_exact_priors():
    # the a_i over D of every exact check come from one helper, and the
    # oracle does not share the exact probability its tests compare with
    found = [
        f"{module}.{func.name}" for module, tree in TREES.items()
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "math.lcm"
    ]
    assert found == ["combinatorics._integer_priors"]
    names = {name for node in ast.walk(TREES["oracle"])
             for name in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None))}
    assert "macrostate_probability_exact" not in names


def test_one_owner_of_the_support_mask():
    # the support of a log prior is found once per (spectrum, prior), by
    # _family_arrays; the kernel and the routes take its mask
    found = [
        f"{module}.{func.name}({ast.unparse(node.args[0])})"
        for module, tree in TREES.items()
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "isfinite"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
    ]
    assert found == ["equilibrium._family_arrays(log_prior)"]


def test_kernel_internals_stay_in_equilibrium():
    # every kernel-built distribution comes from one of equilibrium's routes
    internals = {"_quiet", "_family_arrays", "_exponential_family", "_prior_entropy"}
    found = sorted(
        f"{module}.{name}" for module, tree in TREES.items() if module != "equilibrium"
        for node in ast.walk(tree)
        for name in (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None))
        if name in internals
    )
    assert found == []
    from_equilibrium = {
        alias.name for node in ast.walk(TREES["cli"])
        if isinstance(node, ast.ImportFrom) and node.level
        and node.module == "equilibrium"
        for alias in node.names
    }
    assert from_equilibrium == {"generalized_distribution", "solve_beta", "_sweep"}


def _calls(name: str):
    """(module, qualified enclosing function) of each call whose callee
    unparses to ``name``."""
    def walk(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, module, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == name:
                yield module, owner
            yield from walk(child, module, owner)
    for module, tree in TREES.items():
        yield from walk(tree, module, module)


def test_value_types_set_their_fields_only_while_constructed():
    # a frozen value type converts and checks its own fields, in its
    # constructor; no function rewrites an instance after it is built
    owners = sorted({owner for _, owner in _calls("object.__setattr__")})
    assert owners and all(
        owner.rsplit(".", 1)[1] in ("__init__", "__post_init__")
        and owner.split(".")[1][:1].isupper() for owner in owners), owners


def test_only_oscillators_builds_a_dimensionality():
    # OscillatorModel takes "1d" and "2d"; callers pass them through
    assert {module for module, _ in _calls("Dimensionality")} == {"oscillators"}
