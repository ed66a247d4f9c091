"""Five rules that every penalty reads are each written once in the package.

The check parses each module of ``src/epflab`` with ``ast``.  No module
uses ``np.linalg.norm``: every Euclidean norm is ``numerics.norm``, which
keeps numpy's bits and stays finite where a finite vector's sum of squares
overflows.  No module but ``numerics`` calls ``np.vdot``: every dot product
of floats is ``numerics.dot`` or ``numerics.norm``, which have its bits and
compute one or two entries on floats.  One function raises the ValueError for a penalty parameter
c outside (0, inf): ``problems.check_penalty_parameter``, which every F
calls.  And one function shape-checks a multiplier:
``problems.read_multipliers``, through which ``kkt_residual``, al-hpr,
the flat ``--lambda`` layout and the CLI read theirs; it alone raises a
DimensionMismatch that names a multiplier under an ``if`` that reads a
shape (``.shape``, ``.size``, ``.ndim`` or ``len``).  And one function
checks that a problem's cones fit a C1 penalty or multiplier estimate:
``smoothpen.check_cone`` alone raises a ValueError under an ``if`` that
reads a problem's ``sdp_block`` or ``soc_blocks``.
"""

import ast
import re
from pathlib import Path

import epflab

PACKAGE = Path(epflab.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
# Every message of the penalty-parameter ValueError starts with this.
C_MESSAGE = "penalty parameter c"
# A DimensionMismatch whose message matches this is about a multiplier.
MULTIPLIER_MESSAGE = re.compile(r"multiplier|\bmu\b")
# A ValueError raised under an ``if`` that reads one of these is about the cone fit.
CONE_FIELDS = ("sdp_block", "soc_blocks")


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


def vdot_uses(source: str) -> list:
    """Line numbers of each ``<name>.vdot`` and of each import of ``vdot``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "vdot":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(alias.name == "vdot" for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def _is_c_error(exc) -> bool:
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id == "ValueError"
            and any(isinstance(n, ast.Constant) and isinstance(n.value, str) and C_MESSAGE in n.value
                    for n in ast.walk(exc)))


def _raise_owners(source: str, module: str, counts) -> list:
    """``module.function`` (nested functions dotted) of each innermost
    function with a raise for which ``counts(exc, tests)`` holds, once per
    raise; ``tests`` are the conditions of the ``if`` statements around the
    raise inside that function."""
    owners = []

    def visit(node, scope, tests):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], [])
            else:
                if isinstance(child, ast.Raise) and counts(child.exc, tests):
                    owners.append(".".join([module] + scope))
                visit(child, scope, tests + [child.test] if isinstance(child, ast.If) else tests)

    visit(ast.parse(source), [], [])
    return owners


def c_check_owners(source: str, module: str) -> list:
    """Owners of each raise of the penalty-parameter ValueError."""
    return _raise_owners(source, module, lambda exc, tests: _is_c_error(exc))


def _reads_a_shape(test) -> bool:
    return any((isinstance(n, ast.Attribute) and n.attr in ("shape", "size", "ndim"))
               or (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "len")
               for n in ast.walk(test))


def _is_multiplier_shape_error(exc, tests) -> bool:
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id == "DimensionMismatch" and any(map(_reads_a_shape, tests))
            and any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and MULTIPLIER_MESSAGE.search(n.value) for n in ast.walk(exc)))


def multiplier_check_owners(source: str, module: str) -> list:
    """Owners of each raise of a multiplier's shape DimensionMismatch."""
    return _raise_owners(source, module, _is_multiplier_shape_error)


def _reads_the_cones(test) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr in CONE_FIELDS for n in ast.walk(test))


def _is_cone_fit_error(exc, tests) -> bool:
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id == "ValueError" and any(map(_reads_the_cones, tests)))


def cone_check_owners(source: str, module: str) -> list:
    """Owners of each raise of the cone-fit ValueError."""
    return _raise_owners(source, module, _is_cone_fit_error)


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


def test_vdot_guard_sees_violations():
    source = '''
import numpy
import numpy as np
from numpy import vdot as inner


def square(v):
    return float(np.vdot(v, v)) + numpy.vdot(v, v) + inner(v, v) + np.dot(v, v)
'''
    assert vdot_uses(source) == [4, 8, 8]


def test_multiplier_guard_sees_violations():
    source = '''
def reader(lam, mu, n):
    if len(lam) != n:
        raise DimensionMismatch("one multiplier vector per SOC block required")
    if lam is None:
        pass
    elif any(v.shape != (2,) for v in lam):
        raise DimensionMismatch(f"SOC multiplier dimension mismatch, got {len(lam)}")


def residual(x, lam, mu):
    if x.shape != (2,):
        raise DimensionMismatch(f"x has shape {x.shape}")
    if mu is None:
        raise DimensionMismatch("residual needs a multiplier for every block")

    def inner(mu):
        if mu.size != 1:
            raise DimensionMismatch("mu dimension mismatch")
        if mu.size > 2:
            raise ValueError("al-hpr needs one equality multiplier")
'''
    assert multiplier_check_owners(source, "m") == ["m.reader", "m.reader", "m.residual.inner"]


def test_cone_guard_sees_violations():
    source = '''
def check(problem, sdp):
    if (problem.sdp_block is not None) != sdp:
        raise ValueError("c1 does not fit")
    if sdp and problem.soc_blocks:
        raise ValueError("mixed blocks")


def estimate(problem, x):
    if x.size == 0:
        raise ValueError("empty x")
    if problem.sdp_block is None:
        if problem.n_eq:
            raise ValueError("problem has no SDP block")
        raise DimensionMismatch("no cone")

    def inner(problem):
        if not problem.soc_blocks:
            raise ValueError("no SOC block")
'''
    assert cone_check_owners(source, "m") == ["m.check", "m.check", "m.estimate", "m.estimate.inner"]


def test_no_module_uses_np_linalg_norm():
    uses = {p.name: linalg_norm_uses(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_no_module_but_numerics_calls_np_vdot():
    uses = {p.name: vdot_uses(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: lines for name, lines in uses.items() if lines and name != "numerics.py"} == {}
    assert uses["numerics.py"], "numerics no longer calls np.vdot: update this guard"


def test_one_function_owns_the_penalty_parameter_check():
    owners = [owner for p in MODULES for owner in c_check_owners(p.read_text(encoding="utf-8"), p.stem)]
    assert owners == ["problems.check_penalty_parameter"]


def test_one_function_shape_checks_a_multiplier():
    owners = [owner for p in MODULES
              for owner in multiplier_check_owners(p.read_text(encoding="utf-8"), p.stem)]
    assert set(owners) == {"problems.read_multipliers"}


def test_one_function_checks_the_cone_fit():
    owners = [owner for p in MODULES
              for owner in cone_check_owners(p.read_text(encoding="utf-8"), p.stem)]
    assert set(owners) == {"smoothpen.check_cone"}
