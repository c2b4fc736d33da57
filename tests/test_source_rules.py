"""Rules on the package source, checked by parsing it.

* Exact elimination is fraction-free: both kernels work on integers, the
  dense Smith normal form ``lattice.smith_normal_form`` and the sparse
  unimodular echelon shared by ``lattice.rank`` and ``lattice.cokernel``,
  and no module imports ``fractions``.
* Preconditions and internal checks raise ``ToricError``; ``assert`` is
  stripped under ``python -O``, so the package has none.
* Records are named tuples or plain classes, and no module imports
  ``dataclasses``: each ``@dataclass`` generates and compiles its methods
  on every import, a large share of the start-up when no bytecode is
  cached.
* No dead helpers: every private (``_name``) module-level function and
  method is referenced somewhere in the package outside its own body, and
  every public module-level function is too, or is exported from
  ``torikit/__init__.py``.  A function that only the tests call belongs
  in the tests.
"""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "torikit"
MODULES = sorted(SRC.glob("*.py"))


def test_package_sources_found():
    assert {p.name for p in MODULES} >= {"lattice.py", "cone.py", "rings.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_fractions_and_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
        else:
            names = []
        for banned in ("fractions", "dataclasses"):
            assert banned not in names, f"{path.name}:{node.lineno} imports {banned}"
        assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} uses assert"


def _references(tree: ast.AST) -> Counter:
    """Names loaded, attributes read and names imported within ``tree``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def _private_definitions(tree: ast.Module):
    """Module-level functions and methods named ``_name`` (not dunders)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if (
                isinstance(member, functions)
                and member.name.startswith("_")
                and not member.name.endswith("__")
            ):
                yield member


def test_every_private_helper_is_referenced():
    trees = {
        p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in MODULES
    }
    total = sum((_references(t) for t in trees.values()), Counter())
    dead = [
        f"{name}:{d.lineno} {d.name}"
        for name, tree in trees.items()
        for d in _private_definitions(tree)
        if total[d.name] - _references(d)[d.name] <= 0
    ]
    assert not dead, f"private helpers referenced nowhere else: {dead}"


def test_every_public_function_is_used_or_exported():
    trees = {
        p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in MODULES
    }
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # an import that is never used does not keep a function alive
    imports = Counter(
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.alias)
    )
    total = sum((_references(t) for t in trees.values()), Counter()) - imports
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in exported
        and total[node.name] - _references(node)[node.name] <= 0
    ]
    assert not dead, f"public functions neither used nor exported: {dead}"
