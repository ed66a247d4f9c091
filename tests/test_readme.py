"""README.md and the code agree on every constant the README quotes.

Each `` `NAME = value` `` in the README must name a module-level constant
of some ``epflab`` module that holds that value.
"""

import ast
import importlib
import re
from pathlib import Path

import epflab

README = Path(__file__).resolve().parent.parent / "README.md"
QUOTED = re.compile(r"`([A-Z][A-Z0-9_]*) = ([^`]+)`")
MODULES = [importlib.import_module(f"epflab.{p.stem}")
           for p in sorted(Path(epflab.__file__).parent.glob("*.py")) if p.stem != "__init__"]


def drift(text: str) -> list:
    """Every quoted ``(name, value)`` that no module defines with that value."""
    wrong = []
    for name, literal in QUOTED.findall(text):
        value = ast.literal_eval(literal)
        if not any(getattr(m, name, None) == value for m in MODULES):
            wrong.append((name, literal))
    return wrong


def test_guard_sees_a_changed_constant():
    assert drift("`POLISH_XATOL = 1e-9` and `POLISH_FATOL = 1e-11`") == []
    assert drift("`POLISH_XATOL = 1e-8` and `NO_SUCH_NAME = 1`") == [("POLISH_XATOL", "1e-8"),
                                                                   ("NO_SUCH_NAME", "1")]


def test_readme_constants_match_code():
    text = README.read_text(encoding="utf-8")
    assert QUOTED.findall(text)
    assert drift(text) == []
