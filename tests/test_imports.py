"""Every name a plasthom module imports is used in that module, every
private function or class is used somewhere in the package, every public
one is used by the package, a demo, the benchmark, the acceptance suite or
the README, the only third-party modules the package imports are numpy
and scipy.sparse, and no numpy function younger than the oldest numpy that
``pyproject.toml`` admits is called.

Stand-ins for a linter's unused-import and dead-code rules, written with the
stdlib ``ast`` so they run wherever the tests do.  ``__init__`` is skipped by
the import check: its imports are the package's public exports.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plasthom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# scipy.sparse.linalg alone adds about 9 MB of resident memory
THIRD_PARTY = {"numpy", "scipy.sparse"}
# numpy and numpy.linalg functions added in numpy 2.x; pyproject.toml admits numpy 1.24
NUMPY_2_ONLY = {
    "numpy": {"acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh",
              "bitwise_count", "bitwise_invert", "bitwise_left_shift",
              "bitwise_right_shift", "concat", "cumulative_prod", "cumulative_sum",
              "isdtype", "matrix_transpose", "matvec", "permute_dims", "pow", "trapezoid",
              "unique_all", "unique_counts", "unique_inverse", "unique_values", "unstack",
              "vecdot", "vecmat"},
    "numpy.linalg": {"diagonal", "matrix_norm", "matrix_transpose", "outer", "svdvals",
                     "tensordot", "trace", "vecdot", "vector_norm"},
}


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


def test_every_public_definition_is_used_outside_its_tests():
    """A public top-level function or class is referenced somewhere other than
    its own definition: in a package module other than ``__init__``, a demo,
    a benchmark script, the acceptance suite or the README.  Unit tests do not
    count, so a helper that only its own tests read fails."""
    users = MODULES + sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf8"), filename=str(p)) for p in users}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf8")))
    statements = [node for tree in trees.values() for node in tree.body]
    references = [referenced_names(node) for node in statements]
    unused = []
    for path in MODULES:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") or node.name in readme:
                continue
            if not any(node.name in names for other, names in zip(statements, references)
                       if other is not node):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def absolute_imports(tree):
    """Dotted names of the modules that absolute imports may load.  ``from a
    import b`` counts as ``a.b``, since b may be a submodule of a."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.extend(f"{node.module}.{a.name}" for a in node.names)
    return names


def test_third_party_imports_are_numpy_and_scipy_sparse():
    """No module imports scipy.sparse.linalg, scipy.linalg or any other
    third-party module, each of which adds megabytes to every run's peak
    memory."""
    found = {name for path in sorted(PACKAGE.glob("*.py"))
             for name in absolute_imports(ast.parse(path.read_text(encoding="utf8")))}
    assert "scipy.sparse" in found, "the check is vacuous"
    third_party = {name for name in found
                   if name.split(".")[0] not in sys.stdlib_module_names}
    assert sorted(third_party - THIRD_PARTY) == []


def numpy_calls(tree):
    """Dotted names ``np.f`` and ``np.linalg.f`` read in the module, spelled ``numpy...``."""
    def dotted(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            head = dotted(node.value)
            return head and f"{head}.{node.attr}"
        return None
    names = {dotted(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return {"numpy" + name[2:] for name in names if name and name.startswith("np.")}


def test_numpy_functions_exist_in_the_oldest_admitted_numpy():
    assert "numpy>=1.24" in (ROOT / "pyproject.toml").read_text(encoding="utf8")
    called = {name for path in sorted(PACKAGE.glob("*.py"))
              for name in numpy_calls(ast.parse(path.read_text(encoding="utf8")))}
    assert "numpy.linalg.solve" in called, "the check is vacuous"
    too_new = {name for name in called
               if name.rpartition(".")[2] in NUMPY_2_ONLY.get(name.rpartition(".")[0], ())}
    assert sorted(too_new) == []
