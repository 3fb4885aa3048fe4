"""Public names: the package's star import and every module's ``__all__``;
and no module-level import, private function, class or constant goes unused."""

import ast
import collections
import importlib
import pathlib
import pkgutil

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


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_every_import_is_used_or_exported(name):
    module = importlib.import_module("gcstates" if name == "__init__" else f"gcstates.{name}")
    used = {node.id for node in ast.walk(SOURCES[name]) if isinstance(node, ast.Name)}
    unused = set(_imported_names(SOURCES[name])) - used - set(getattr(module, "__all__", ()))
    assert unused == set()


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
