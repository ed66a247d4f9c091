"""Eight rules that every penalty reads are each written once in the package.

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
reads a problem's ``sdp_block`` or ``soc_blocks``.  And the float
arithmetic that keeps LAPACK's and BLAS's bits lives in ``numerics``: no
other module imports or reaches ``scipy.linalg.lapack``, and no other spells
Veltkamp's split constant 2**27 + 1 = 134217729, as a literal or as
arithmetic on literals.  And no module calls numpy's sort (``argsort``,
``np.sort``, ``np.lexsort``): the solver orders its simplex by Python's
stable ``sorted``, which orders ties the same way on every CPU.

Beside them, one rule of cost: the solver's loops ``_nelder_mead`` and
``_nelder_mead_2d`` call numpy only in their last statement, the return of
the final result.  F gets each point as a tuple of floats, so no array is
built per F call.
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


def lapack_uses(source: str) -> list:
    """Line numbers of each import of ``scipy.linalg.lapack`` (or of
    ``lapack`` from ``scipy.linalg``) and of each ``<...>linalg.lapack``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            lines += [node.lineno for alias in node.names if alias.name.startswith("scipy.linalg.lapack")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if (node.module.startswith("scipy.linalg.lapack")
                    or (node.module == "scipy.linalg" and any(a.name == "lapack" for a in node.names))):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "lapack":
            owner = node.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "linalg") or (
                    isinstance(owner, ast.Name) and owner.id == "linalg"):
                lines.append(node.lineno)
    return sorted(lines)


NUMPY_SORTS = ("sort", "argsort", "lexsort")


def numpy_sort_uses(source: str) -> list:
    """Line numbers of each ``.argsort`` and ``.lexsort``, each ``np.sort``
    or ``numpy.sort``, and each import of one of the three from numpy."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
                node.attr in ("argsort", "lexsort") or (node.attr == "sort" and isinstance(node.value, ast.Name)
                                                        and node.value.id in ("np", "numpy"))):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
              and any(alias.name in NUMPY_SORTS for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


# The solver's loops, which make every F call of a local solve.
SOLVER_LOOPS = ("_nelder_mead", "_nelder_mead_2d")


def loop_numpy_calls(source: str) -> list:
    """Line numbers of each ``np.<name>(...)`` or ``numpy.<name>(...)`` call
    in a top-level function named in ``SOLVER_LOOPS``, outside its last
    statement when that is a return."""
    lines = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name in SOLVER_LOOPS):
            continue
        body = node.body[:-1] if isinstance(node.body[-1], ast.Return) else node.body
        for stmt in body:
            lines += [n.lineno for n in ast.walk(stmt)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and isinstance(n.func.value, ast.Name) and n.func.value.id in ("np", "numpy")]
    return sorted(lines)


SPLIT = 134217729  # 2**27 + 1


def _literal_value(node):
    """The value of a number literal, or of arithmetic on number literals
    (``2.0 ** 27 + 1``); None for anything else."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _literal_value(node.operand)
        return None if value is None else (value if isinstance(node.op, ast.UAdd) else -value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Pow)):
        left, right = _literal_value(node.left), _literal_value(node.right)
        if left is None or right is None or (isinstance(node.op, ast.Pow) and abs(right) > 64):
            return None
        ops = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
               ast.Mult: lambda a, b: a * b, ast.Pow: lambda a, b: a ** b}
        return ops[type(node.op)](left, right)
    return None


def split_constant_uses(source: str) -> list:
    """Line numbers of each outermost literal expression worth 134217729."""
    lines = []

    def visit(node):
        if _literal_value(node) == SPLIT:
            lines.append(node.lineno)
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
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


def test_lapack_and_split_guards_see_violations():
    source = '''
import scipy.linalg.lapack
from scipy.linalg.lapack import dposv
from scipy.linalg import lapack as lp, eigh
import numpy as np, scipy.linalg.lapack as lap2
from scipy import linalg


def split(a):
    t = 134217729.0 * a + 134217729 - (2.0 ** 27 + 1) + scipy.linalg.lapack.dgesv
    return t * 134217728.0 + linalg.lapack.dposv + eigh(a, 2 ** 27 + 1)
'''
    assert lapack_uses(source) == [2, 3, 4, 5, 10, 11]
    # 2 ** 27 + 1 is arithmetic on literals worth the constant; 134217728.0 is not.
    assert split_constant_uses(source) == [10, 10, 10, 11]


def test_numpy_sort_guard_sees_violations():
    source = '''
import numpy as np
from numpy import sort as npsort, argsort
from numpy.core.multiarray import lexsort


def order(fs, keys):
    idx = np.array(fs).argsort() + np.argsort(fs) + np.sort(fs) + numpy.sort(fs)
    fs.sort()
    return sorted(range(len(fs)), key=fs.__getitem__), np.lexsort(keys), solvers._argsort(fs)
'''
    # A list's own sort, sorted and a function named _argsort are not numpy's sort.
    assert numpy_sort_uses(source) == [3, 4, 8, 8, 8, 8, 10]


def test_solver_loop_guard_sees_violations():
    source = '''
import numpy as np


def _nelder_mead(func, sim):
    fs = [func(np.array(p)) for p in sim]
    while fs:
        fx = func(numpy.asarray(sim[0]))
        step = lambda p: func(np.array(p))
    return np.array(sim[0]), float(np.array(fs).min())


def _nelder_mead_2d(func, a0, a1):
    fr = func((a0, a1))
    if fr != fr:
        return np.array([a0, a1]), fr
    return np.array([a0, a1]), fr


def _finite_starts(func, sim):
    return [func(np.array(p)) for p in sim]
'''
    # The final return may build the result; an earlier return, a lambda
    # and another function's calls are not the final result.
    assert loop_numpy_calls(source) == [6, 8, 9, 16]


def test_solver_loops_build_no_array_per_f_call():
    source = (PACKAGE / "solvers.py").read_text(encoding="utf-8")
    assert loop_numpy_calls(source) == []
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert set(SOLVER_LOOPS) <= defined, "a solver loop was renamed: update this guard"


def test_no_module_calls_numpy_sort():
    uses = {p.name: numpy_sort_uses(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: lines for name, lines in uses.items() if lines} == {}


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


def test_no_module_but_numerics_reaches_lapack():
    uses = {p.name: lapack_uses(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: lines for name, lines in uses.items() if lines and name != "numerics.py"} == {}
    assert uses["numerics.py"], "numerics no longer imports LAPACK: update this guard"


def test_no_module_but_numerics_spells_the_split_constant():
    uses = {p.name: split_constant_uses(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: lines for name, lines in uses.items() if lines and name != "numerics.py"} == {}
    assert uses["numerics.py"], "numerics no longer splits by Veltkamp's constant: update this guard"
