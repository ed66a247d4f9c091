"""Two rules that every penalty reads are each written once in the package.

The check parses each module of ``src/epflab`` with ``ast``.  No module
uses ``np.linalg.norm``: every Euclidean norm is ``numerics.norm``, which
keeps numpy's bits and stays finite where a finite vector's sum of squares
overflows.  And one function raises the ValueError for a penalty parameter
c outside (0, inf): ``problems.check_penalty_parameter``, which every F
calls.
"""

import ast
from pathlib import Path

import epflab

PACKAGE = Path(epflab.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
# Every message of the penalty-parameter ValueError starts with this.
C_MESSAGE = "penalty parameter c"


def linalg_norm_uses(source: str) -> list:
    """Line numbers of each ``<name>.linalg.norm`` and of each import of
    ``norm`` from ``numpy.linalg``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "norm"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
              and any(alias.name == "norm" for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def _is_c_error(exc) -> bool:
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id == "ValueError"
            and any(isinstance(n, ast.Constant) and isinstance(n.value, str) and C_MESSAGE in n.value
                    for n in ast.walk(exc)))


def c_check_owners(source: str, module: str) -> list:
    """``module.function`` (nested functions dotted) of each innermost
    function that raises the penalty-parameter ValueError, once per raise."""
    owners = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
            else:
                if isinstance(child, ast.Raise) and _is_c_error(child.exc):
                    owners.append(".".join([module] + scope))
                visit(child, scope)

    visit(ast.parse(source), [])
    return owners


def test_guard_sees_violations():
    source = '''
import numpy as np
from numpy.linalg import norm


def length(v):
    return np.linalg.norm(v) + norm(v)


def penalty(x, c):
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")

    def inner(c):
        raise ValueError(f"penalty parameter c = {c} is not finite")

    raise ValueError("q must be positive")
'''
    assert linalg_norm_uses(source) == [3, 7]
    assert c_check_owners(source, "m") == ["m.penalty", "m.penalty.inner"]


def test_no_module_uses_np_linalg_norm():
    uses = {p.name: linalg_norm_uses(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_one_function_owns_the_penalty_parameter_check():
    owners = [owner for p in MODULES for owner in c_check_owners(p.read_text(encoding="utf-8"), p.stem)]
    assert owners == ["problems.check_penalty_parameter"]
