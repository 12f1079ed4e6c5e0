"""Every name a plasthom module imports is used in that module, and every
private function or class is used somewhere in the package.

Stand-ins for a linter's unused-import and dead-code rules, written with the
stdlib ``ast`` so they run wherever the tests do.  ``__init__`` is skipped by
the import check: its imports are the package's public exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plasthom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names that the module's import statements bind, anywhere in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf8"), filename=str(path))
    assert sorted(imported_names(tree) - used_names(tree)) == []


def private_definitions(tree):
    """Names of the functions and classes with a leading underscore, at any depth."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(tree) if isinstance(node, kinds)
            and node.name.startswith("_") and not node.name.endswith("__")}


def referenced_names(tree):
    """Bare names and attribute names read or written anywhere in the module."""
    return used_names(tree) | {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)}


def test_every_private_definition_is_referenced():
    trees = [ast.parse(p.read_text(encoding="utf8"), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))]
    defined = set().union(*map(private_definitions, trees))
    referenced = set().union(*map(referenced_names, trees))
    assert defined, "the package defines no private helpers; the check is vacuous"
    assert sorted(defined - referenced) == []
