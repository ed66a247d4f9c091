"""No module of the package imports a name it never uses.

The check parses each module with ``ast``: every name bound by a
module-level import must appear as a name somewhere else in the module.
``__init__.py`` re-exports what it imports and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "epflab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in _imported_names(tree) if name not in used]


def test_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
