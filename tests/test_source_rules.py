"""Rules on the package source, checked by parsing it.

* Exact elimination over Q has one kernel, ``lattice.echelon``, and it is
  fraction-free: no module imports ``fractions``.
* Preconditions and internal checks raise ``ToricError``; ``assert`` is
  stripped under ``python -O``, so the package has none.
"""

import ast
import pathlib

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
        assert "fractions" not in names, f"{path.name}:{node.lineno} imports fractions"
        assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} uses assert"
