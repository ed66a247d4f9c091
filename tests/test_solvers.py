import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from epflab import solvers
from epflab.errors import AllStartsFailed
from epflab.harness import _solve_at, make_penalty
from epflab.problems import get_problem
from epflab.solvers import SolverConfig, minimize, polish


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_starts=0)


def test_minimize_convex_quadratic():
    func = lambda x: float((x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2)
    res = minimize(func, np.array([-5.0, -5.0]), np.array([5.0, 5.0]),
                   SolverConfig(n_starts=8, seed=0))
    assert np.linalg.norm(res.x - np.array([1.0, -2.0])) <= 1e-6
    assert res.value <= 1e-10
    assert res.n_starts_agreeing >= 1


def test_minimize_linear_penalty_kink():
    func = lambda x: float(-x[0] + 2.0 * max(0.0, x[0]))
    res = minimize(func, np.array([-2.0]), np.array([2.0]), SolverConfig(n_starts=8, seed=0))
    assert abs(res.x[0]) <= 1e-4


def test_minimize_all_starts_failed():
    func = lambda x: math.inf
    with pytest.raises(AllStartsFailed):
        minimize(func, np.array([-1.0]), np.array([1.0]), SolverConfig(n_starts=4, seed=0))


def test_minimize_partial_domain():
    # Finite only on x >= 0: Sobol redraw must find usable starts.
    func = lambda x: float(x[0] ** 2) if x[0] >= 0 else math.inf
    res = minimize(func, np.array([-10.0]), np.array([10.0]), SolverConfig(n_starts=8, seed=3))
    assert abs(res.x[0]) <= 1e-4


def test_minimize_deterministic():
    func = lambda x: float(np.sum((x - 0.3) ** 2))
    cfg = SolverConfig(n_starts=8, seed=42)
    r1 = minimize(func, np.array([-1.0, -1.0]), np.array([1.0, 1.0]), cfg)
    r2 = minimize(func, np.array([-1.0, -1.0]), np.array([1.0, 1.0]), cfg)
    assert np.array_equal(r1.x, r2.x)
    assert r1.value == r2.value


def test_minimize_respects_box():
    func = lambda x: float(-x[0])  # pushed to the upper bound
    res = minimize(func, np.array([-1.0]), np.array([2.0]), SolverConfig(n_starts=4, seed=0))
    assert res.x[0] <= 2.0 + 1e-12
    assert res.x[0] == pytest.approx(2.0, abs=1e-6)


def test_polish_improves():
    func = lambda x: float((x[0] - 1.0) ** 4)
    x, val = polish(func, np.array([0.9]), np.array([-2.0]), np.array([2.0]))
    assert val <= func(np.array([0.9]))


def _record_options(monkeypatch):
    """Record the options of every Nelder-Mead call the solver makes."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs["options"])
        return scipy_minimize(*args, **kwargs)

    monkeypatch.setattr(solvers, "scipy_minimize", recording)
    return seen


def test_nelder_mead_policy_options(monkeypatch):
    seen = _record_options(monkeypatch)
    func = lambda x: float(np.sum((x - 0.3) ** 2))
    box = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    minimize(func, *box, SolverConfig(n_starts=1, seed=0))
    assert seen == [{"maxiter": 400 * 2, "xatol": 1e-6, "fatol": 1e-8}]
    seen.clear()
    polish(func, np.zeros(2), *box)
    assert seen == [{"maxiter": 1600 * 2, "xatol": 1e-9, "fatol": 1e-11}]


def test_polish_never_gets_the_start_pair(monkeypatch):
    seen = _record_options(monkeypatch)
    monkeypatch.setattr(solvers, "START_XATOL", 0.125)
    monkeypatch.setattr(solvers, "START_FATOL", 0.25)
    tight = (solvers.POLISH_XATOL, solvers.POLISH_FATOL)
    func = lambda x: float(np.sum((x - 0.3) ** 2))
    box = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    minimize(func, *box, SolverConfig(n_starts=3, seed=0))
    polish(func, np.zeros(2), *box)
    assert [(o["xatol"], o["fatol"]) for o in seen] == [(0.125, 0.25)] * 3 + [tight]
    # The harness's solve at c: every start coarse, then one tight polish of the winner.
    seen.clear()
    problem = get_problem("toy-lin-1")
    _solve_at(make_penalty(problem, "linear"), 4.0, SolverConfig(n_starts=3, seed=0))
    assert [(o["xatol"], o["fatol"]) for o in seen] == [(0.125, 0.25)] * 3 + [tight]


def test_nelder_mead_budget_read_at_call_time(monkeypatch):
    seen = _record_options(monkeypatch)
    monkeypatch.setattr(solvers, "ITERS_PER_DIM", 3)
    func = lambda x: float(np.sum((x - 0.3) ** 2))
    box = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    minimize(func, *box, SolverConfig(n_starts=1, seed=0))
    polish(func, np.zeros(2), *box)
    assert [opts["maxiter"] for opts in seen] == [3 * 2, 4 * 3 * 2]


@pytest.mark.parametrize("lower, upper", [
    ([-np.inf], [1.0]),
    ([-1.0], [np.inf]),
    ([np.nan], [1.0]),
    ([-1.0, 2.0], [1.0, 1.0]),
])
def test_minimize_rejects_bad_box_before_sampling(lower, upper):
    calls = []

    def func(x):
        calls.append(x)
        return 0.0

    with pytest.raises(ValueError):
        minimize(func, np.array(lower), np.array(upper), SolverConfig(n_starts=4, seed=0))
    assert calls == []
