"""Every name a plasthom module imports is used in that module.

A stand-in for a linter's unused-import rule, written with the stdlib ``ast``
so it runs wherever the tests do.  ``__init__`` is skipped: its imports are
the package's public exports.
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
