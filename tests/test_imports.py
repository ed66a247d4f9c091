"""No module of the package, and no test file, imports a name it never uses.

The check parses each file with ``ast``: every name bound by a
module-level import must appear as a name somewhere else in the file.
The package's ``__init__.py`` re-exports what it imports and is skipped.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "epflab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(TESTS.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
