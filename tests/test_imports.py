"""Every name a plasthom module imports is used in that module, no module
imports another module's underscore name, every private function or class
is used somewhere in the package, every public one, and every public method
or property of a package class, is used by the package, a demo, the
benchmark, the acceptance suite or the README, the only third-party modules
the package imports are numpy and scipy.sparse, no numpy function younger
than the oldest numpy that ``pyproject.toml`` admits is called, and no
vector reduction is handed to BLAS.

Stand-ins for a linter's unused-import and dead-code rules, written with the
stdlib ``ast`` so they run wherever the tests do.  ``__init__`` is skipped by
the import check: its imports are the package's public exports.
"""

import ast
import re
import sys
from collections import Counter
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

# numpy functions that hand a vector reduction to BLAS
BLAS_REDUCTIONS = {"np.dot", "np.vdot", "np.inner"}


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


def private_imports(tree):
    """``module.name`` of each underscore name that ``tree`` takes from another
    plasthom module: by a ``from`` import, or as an attribute of a module that a
    ``from`` import binds."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.level or (node.module or "").startswith("plasthom")):
            if node.module in (None, "plasthom"):
                modules.update(a.asname or a.name for a in node.names)
            found += [f"{node.module or '.'}.{a.name}" for a in node.names
                      if a.name.startswith("_")]
    return found + [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")]


def test_private_imports_are_found():
    tree = ast.parse("from .fem import P1Space, _x\nfrom . import fem, media as m\n"
                     "from plasthom.media import _z\nfem._y, fem.pcg, m._w, other._v\n")
    assert private_imports(tree) == ["fem._x", "plasthom.media._z", "fem._y", "m._w"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_a_private_name_of_another(path):
    """A module's underscore names are its own: a name that another module
    needs is public, with a docstring, so that it has one documented home."""
    assert private_imports(ast.parse(path.read_text(encoding="utf8"))) == []


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


def reference_counts(tree):
    """How often each bare name and attribute name is read or written in ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def public_definitions(tree):
    """(qualified name, node) of the public top-level functions and classes, and of
    the public methods and properties of the top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def test_every_public_definition_is_used_outside_its_tests():
    """A public top-level function or class, or a public method or property of
    one, is referenced somewhere other than its own definition: in a package
    module other than ``__init__``, a demo, a benchmark script, the acceptance
    suite or the README.  Unit tests do not count, so a helper that only its
    own tests read fails.  Methods are matched by attribute name alone."""
    users = MODULES + sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf8"), filename=str(p)) for p in users}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf8")))
    references = sum(map(reference_counts, trees.values()), Counter())
    unused = [f"{path.stem}.{qualified}" for path in MODULES
              for qualified, node in public_definitions(trees[path])
              if node.name not in readme
              and references[node.name] == reference_counts(node)[node.name]]
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


def dotted(node):
    """``a.b.c`` for a chain of attributes on a bare name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def numpy_calls(tree):
    """Dotted names ``np.f`` and ``np.linalg.f`` read in the module, spelled ``numpy...``."""
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


def blas_reductions(tree):
    """Line and name of every ``np.dot``, ``np.vdot`` and ``np.inner`` read in the
    module, and of every ``np.linalg.norm`` that is not called with ``axis=``."""
    with_axis = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and any(keyword.arg == "axis" for keyword in node.keywords)}
    found = []
    for node in ast.walk(tree):
        name = dotted(node) if isinstance(node, ast.Attribute) else None
        if name in BLAS_REDUCTIONS or name == "np.linalg.norm" and id(node) not in with_axis:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_blas_reductions_are_found():
    tree = ast.parse("np.dot(a, b)\nnp.linalg.norm(x, axis=1)\nnp.linalg.norm(x)\n"
                     "f(np.inner)\nnp.einsum('i,i->', a, b)\n")
    assert blas_reductions(tree) == ["line 1: np.dot", "line 3: np.linalg.norm",
                                     "line 4: np.inner"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_vector_reductions_stay_off_blas(path):
    """Above about 10,000 entries OpenBLAS splits these reductions over its
    threads, which changes their rounding with the thread count and leaves a
    worker spinning between calls; ``tensors.inner`` and ``tensors.norm`` take
    them instead.  ``np.linalg.norm`` over an ``axis`` runs no BLAS."""
    tree = ast.parse(path.read_text(encoding="utf8"), filename=str(path))
    assert blas_reductions(tree) == []
