"""README.md and the code agree on every constant the README quotes.

Each `` `NAME = value` `` in the README must name a module-level constant
of some ``epflab`` module that holds that value.  The other way round, the
solver and verdict policies are fully documented: every module-level
``NAME = <number>`` of ``harness`` and ``solvers`` is quoted so.
"""

import ast
import importlib
import re
from pathlib import Path

import epflab

README = Path(__file__).resolve().parent.parent / "README.md"
QUOTED_NAME = re.compile(r"[A-Z][A-Z0-9_]*")
QUOTED = re.compile(rf"`({QUOTED_NAME.pattern}) = ([^`]+)`")
MODULES = [importlib.import_module(f"epflab.{p.stem}")
           for p in sorted(Path(epflab.__file__).parent.glob("*.py")) if p.stem != "__init__"]
# The modules whose every numeric constant the README must quote.
POLICY_MODULES = ("harness", "solvers")


def drift(text: str) -> list:
    """Every quoted ``(name, value)`` that no module defines with that value."""
    wrong = []
    for name, literal in QUOTED.findall(text):
        value = ast.literal_eval(literal)
        if not any(getattr(m, name, None) == value for m in MODULES):
            wrong.append((name, literal))
    return wrong


def unquoted(source: str, text: str) -> list:
    """Each module-level ``NAME = <number>`` of ``source`` (an upper-case
    name bound to an int or float literal) that ``text`` does not quote
    with that value."""
    quoted = {(name, ast.literal_eval(literal)) for name, literal in QUOTED.findall(text)}
    missing = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and QUOTED_NAME.fullmatch(node.targets[0].id)):
            continue
        try:
            value = ast.literal_eval(node.value)
        except ValueError:
            continue
        if type(value) in (int, float) and (node.targets[0].id, value) not in quoted:
            missing.append(node.targets[0].id)
    return missing


def test_guard_sees_a_changed_constant():
    assert drift("`POLISH_XATOL = 1e-9` and `POLISH_FATOL = 1e-11`") == []
    assert drift("`POLISH_XATOL = 1e-8` and `NO_SUCH_NAME = 1`") == [("POLISH_XATOL", "1e-8"),
                                                                   ("NO_SUCH_NAME", "1")]


def test_readme_constants_match_code():
    text = README.read_text(encoding="utf-8")
    assert QUOTED.findall(text)
    assert drift(text) == []


def test_guard_sees_an_unquoted_constant():
    source = '''
import math
TOL = 1e-4
STEPS = 8
SCALE = -2.0
NAMES = ("a", "b")
FLAG = True
LIMIT = math.inf
_PRIVATE = 3


def f():
    LOCAL = 1.0
'''
    assert unquoted(source, "`TOL = 1e-4` and `STEPS = 8` and `SCALE = -2.0`") == []
    assert unquoted(source, "`TOL = 1e-5` and `SCALE = -2.0`") == ["TOL", "STEPS"]


def test_policy_constants_are_quoted():
    text = README.read_text(encoding="utf-8")
    package = Path(epflab.__file__).parent
    missing = {name: unquoted((package / f"{name}.py").read_text(encoding="utf-8"), text)
               for name in POLICY_MODULES}
    assert {module: names for module, names in missing.items() if names} == {}
