"""Public names: the package's star import and every module's ``__all__``;
no import, private function, class or constant goes unused; no public name
goes unread unless its keeping is stated; and scipy loads only when a
routine computes with it."""

import ast
import collections
import importlib
import json
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import gcstates

MODULES = sorted(m.name for m in pkgutil.iter_modules(gcstates.__path__))


def test_star_import_binds_every_package_name():
    namespace = {}
    exec("from gcstates import *", namespace)
    assert set(gcstates.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_resolves(name):
    module = importlib.import_module(f"gcstates.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


# no linter runs on the package, so these ast checks stand in for one
SOURCES = {
    path.stem: ast.parse(path.read_text())
    for path in pathlib.Path(gcstates.__file__).parent.glob("*.py")
}


def _own_nodes(scope):
    """The nodes of a module or function, without the bodies of the functions in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _imported_names(scope):
    for node in _own_nodes(scope):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_every_import_is_used_or_exported(name):
    # a module's imports against its names and __all__, a function's against its own body
    module = importlib.import_module("gcstates" if name == "__init__" else f"gcstates.{name}")
    tree = SOURCES[name]
    scopes = [(tree, set(getattr(module, "__all__", ())))] + [
        (node, set()) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    unused = set()
    for scope, exported in scopes:
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused |= set(_imported_names(scope)) - used - exported
    assert unused == set()


def _absolute_imports(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_scipy_is_imported_only_inside_functions():
    # importing scipy.special or scipy.linalg costs a command more than its own
    # run, so only the routines that compute with them import them
    assert [
        f"{name}: {module}" for name, tree in sorted(SOURCES.items())
        for module in _absolute_imports(_own_nodes(tree)) if module.split(".")[0] == "scipy"
    ] == []
    assert [
        f"{name}: {module}" for name, tree in sorted(SOURCES.items())
        for module in _absolute_imports(ast.walk(tree)) if module.startswith("scipy.optimize")
    ] == []


# run in a fresh interpreter on the commands in argv[1]; prints the scipy
# modules loaded after each stage
SCIPY_PROBE = """
import contextlib, io, json, sys
import gcstates, gcstates.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
stages = {"import": scipy_modules(),
          "polynomial": sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))}
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        stages[" ".join(args)] = [gcstates.cli.main(args), scipy_modules()]
print(json.dumps(stages))
"""


def _probe(*commands):
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout)
    assert stages.pop("import") == []
    assert stages.pop("polynomial") == []  # import builds no Debye table
    return stages


def _subpackages(loaded):
    """The public scipy subpackages that modules were loaded from."""
    return {".".join(m.split(".")[:2]) for m in loaded
            if m.count(".") >= 2 and not m.split(".")[1].startswith("_")}


def test_only_verify_loads_scipy_and_never_optimize_or_integrate():
    stages = _probe(["coherent", "--z", "1+1i"], ["stats", "--z", "1.5"],
                    ["stats", "--z-sweep", "0", "2", "0.5"], ["fig1", "--zsq", "2"],
                    ["spectrum"], ["moments", "--model", "exp-mass"], ["verify"])
    verify_code, verify_loaded = stages.pop("verify")
    assert set(stages) == {"coherent --z 1+1i", "stats --z 1.5", "stats --z-sweep 0 2 0.5",
                           "fig1 --zsq 2", "spectrum", "moments --model exp-mass"}
    assert list(stages.values()) == [[0, []]] * len(stages)
    assert verify_code == 0
    assert {"scipy.special", "scipy.linalg"} <= set(verify_loaded)
    assert not {"scipy.optimize", "scipy.integrate"} & set(verify_loaded)


def test_oracle_loads_only_linalg():
    # the oracle's one scipy routine is LAPACK's bisection; no quadrature or optimizer
    stages = _probe(["oracle"], ["oracle", "--model", "exp-mass", "--alpha", "2"])
    assert [code for code, _ in stages.values()] == [0, 0]
    for _, loaded in stages.values():
        assert _subpackages(loaded) == {"scipy.linalg"}


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_function_and_class_is_referenced():
    everywhere = collections.Counter(ref for tree in SOURCES.values() for ref in _references(tree))
    unreferenced = [
        f"{module}.{node.name}"
        for module, tree in sorted(SOURCES.items()) for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        # a reference inside its own body (recursion) does not count
        and everywhere[node.name] == list(_references(node)).count(node.name)
    ]
    assert unreferenced == []


def test_every_private_constant_is_referenced():
    # a module-level _NAME = ... that no load, attribute or import names
    trees = SOURCES.values()
    loads = collections.Counter(ref for tree in trees for ref in _references(tree))
    loads.subtract(node.id for tree in trees for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
    unreferenced = [
        f"{module}.{target.id}"
        for module, tree in sorted(SOURCES.items()) for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and target.id.startswith("_") and not target.id.startswith("__")
        and loads[target.id] <= 0
    ]
    assert unreferenced == []


#: public names no module of the package loads, each with why it stays
KEPT = {
    "cli.VERIFY_REPORT_SCHEMA": "the benchmark harness validates verify reports against it",
    "fockrep.build": "the benchmark's verify warm-up builds the ladder matrices with it",
    "stats.mandel_q_closed": "the acceptance test of the paper's sub-Poissonian claim",
}


def _loads(tree, skip=()):
    """Names read in a tree, as plain names or attributes, outside the nodes in skip."""
    for node in ast.walk(tree):
        if node in skip or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_is_loaded_or_kept():
    # a module's __all__ name must be read somewhere in the package outside its
    # own body; the package's __init__ re-export makes a name public API
    package = set(gcstates.__all__)
    unloaded = []
    for module, tree in sorted(SOURCES.items()):
        if module == "__init__":
            continue
        for name in getattr(importlib.import_module(f"gcstates.{module}"), "__all__", ()):
            own = {inner for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
                   for inner in ast.walk(node)}
            if name not in package and not any(
                name in _loads(other, own if other is tree else ()) for other in SOURCES.values()
            ):
                unloaded.append(f"{module}.{name}")
    assert unloaded == sorted(KEPT)
