import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, minimize as scipy_minimize

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
    assert res.n_local_failures == 0  # the default budget suffices on a quadratic


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
    """Record (maxiter, xatol, fatol) of every local Nelder-Mead run the solver makes."""
    seen = []
    loop = solvers._nelder_mead

    def recording(func, start, lower, upper, iters_per_dim, xatol, fatol):
        seen.append({"maxiter": iters_per_dim * start.shape[0], "xatol": xatol, "fatol": fatol})
        return loop(func, start, lower, upper, iters_per_dim, xatol, fatol)

    monkeypatch.setattr(solvers, "_nelder_mead", recording)
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


@pytest.mark.parametrize("lower, upper", [
    ([-np.inf], [1.0]),
    ([-1.0], [np.inf]),
    ([np.nan], [1.0]),
    ([-1.0, 2.0], [1.0, 1.0]),
])
def test_polish_rejects_bad_box_before_calling_f(lower, upper):
    calls = []

    def func(x):
        calls.append(x)
        return 0.0

    with pytest.raises(ValueError, match="finite box with lower <= upper"):
        polish(func, np.zeros(len(lower)), np.array(lower), np.array(upper))
    assert calls == []


@pytest.mark.parametrize("x0", [np.zeros(1), np.zeros(3), np.zeros((2, 1))])
def test_polish_rejects_start_of_another_shape(x0):
    calls = []
    with pytest.raises(ValueError, match="polish needs x0 of shape"):
        polish(lambda x: calls.append(x) or 0.0, x0, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert calls == []


def _assert_same_as_scipy(func, x0, lower, upper, iters_per_dim, xatol, fatol):
    """The in-house loop and scipy's bounded Nelder-Mead make the same F calls
    and return the same bits; returns whether the iteration budget ran out."""
    scipy_calls, own_calls = [], []

    def logged(calls):
        return lambda x: calls.append(x.tobytes()) or func(x)

    maxiter = iters_per_dim * x0.shape[0]
    ref = scipy_minimize(logged(scipy_calls), x0.copy(), method="Nelder-Mead",
                         bounds=Bounds(lower, upper),
                         options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
    x, value, nfev, hit_cap = solvers._nelder_mead(logged(own_calls), x0.copy(), lower, upper,
                                                   iters_per_dim, xatol, fatol)
    assert own_calls == scipy_calls
    assert x.tobytes() == np.asarray(ref.x, dtype=float).tobytes()
    assert np.float64(value).tobytes() == np.float64(ref.fun).tobytes()
    assert nfev == ref.nfev
    assert hit_cap == (ref.status == 2)
    return hit_cap


PARITY_FUNCS = {
    "quadratic": lambda x: float(np.sum(np.arange(1, x.size + 1) * (x - 0.3) ** 2)),
    "kink": lambda x: float(np.sum(np.abs(x - 0.1)) + abs(x[0] + x[-1])),
    # +inf left of x0 = 0.2, so some simplices hold several +inf values.
    "inf-on-part": lambda x: float(np.sum(x ** 2)) if x[0] >= 0.2 else math.inf,
    "nan-on-part": lambda x: float(np.sum((x - 0.5) ** 2)) if x[0] <= 0.6 else math.nan,
    # Two plateaus, returned as a size-1 array: from the "ties" start in
    # three dimensions the first four values are 1, 1, 0, 0, which numpy's
    # argsort need not sort stably.
    "plateaus": lambda x: np.array([float(np.all(x[1:] <= 0.5))]),
}

# Each start's telling coordinate comes first; a start in d dimensions is its first d entries.
PARITY_STARTS = {
    "interior": [0.37, -0.61, 0.83],
    "zero coordinate": [0.0, -0.61, 0.83],
    "within 5 % of upper": [1.2375, -0.61, 0.83],
    "on a bound": [-1.5, -0.61, 1.25],
    "in the +inf region": [-0.5, -0.61, 0.83],
    "next to the NaN region": [0.59, -0.61, 0.83],
    "ties": [0.2, 0.48, 0.48],
}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(PARITY_FUNCS))
def test_nelder_mead_matches_scipy_bit_for_bit(name):
    func = PARITY_FUNCS[name]
    for dim in (1, 2, 3):
        cases = [(np.array(start[:dim]), np.full(dim, -1.5), np.full(dim, 1.25))
                 for start in PARITY_STARTS.values()]
        # A +0.0 start on a -0.0 upper bound: the clips must keep np.clip's signed zeros.
        cases.append((np.zeros(dim), np.full(dim, -1.0), np.full(dim, -0.0)))
        for start, lower, upper in cases:
            for iters_per_dim, xatol, fatol in ((400, 1e-6, 1e-8), (1600, 1e-9, 1e-11), (1, 1e-6, 1e-8)):
                hit_cap = _assert_same_as_scipy(func, start, lower, upper, iters_per_dim, xatol, fatol)
                # One iteration per coordinate is too few for any run to converge.
                assert hit_cap or iters_per_dim > 1


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_nelder_mead_matches_scipy_on_random_quadratics(dim, seed):
    rng = np.random.default_rng(seed)
    lower = -rng.uniform(0.1, 3.0, dim)
    upper = rng.uniform(0.1, 3.0, dim)
    center = rng.uniform(2.0 * lower, 2.0 * upper)  # sometimes outside the box
    root = rng.normal(size=(dim, dim))
    hessian = root @ root.T + 0.1 * np.eye(dim)
    func = lambda x: float((x - center) @ hessian @ (x - center))
    _assert_same_as_scipy(func, rng.uniform(lower, upper), lower, upper, 400, 1e-6, 1e-8)


def test_budget_of_one_iteration_per_coordinate_fails_every_start(monkeypatch):
    monkeypatch.setattr(solvers, "ITERS_PER_DIM", 1)
    func = lambda x: float(np.sum((x - 0.3) ** 2))
    res = minimize(func, np.array([-1.0, -1.0]), np.array([1.0, 1.0]), SolverConfig(n_starts=5, seed=0))
    assert res.n_local_failures == res.n_starts_used == 5


def test_nfev_counts_the_local_solves_only():
    calls = []

    def func(x):
        calls.append(x)
        return float(np.sum((x - 0.3) ** 2))

    cfg = SolverConfig(n_starts=5, seed=0)
    res = minimize(func, np.array([-1.0, -1.0]), np.array([1.0, 1.0]), cfg)
    # func is finite everywhere, so the Sobol screening evaluates exactly n_starts points.
    assert res.nfev == len(calls) - cfg.n_starts > 0


_ORDER_VALUES = [-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf, math.nan]


def test_small_simplex_order_is_numpy_argsort():
    # The small-simplex order relies on numpy's argsort being stable on at
    # most 3 values; a numpy whose small sorts change fails here.
    for length in (2, 3):
        for fs in itertools.product(_ORDER_VALUES, repeat=length):
            fs = list(fs)
            assert solvers._argsort(fs) == np.array(fs).argsort().tolist(), fs


# Each point map of the loop and scipy's expression for it, on arrays.
_STEP_EXPRESSIONS = {
    "clip": lambda a, v: v,
    "reflect": lambda a, v: 2 * a - v,
    "expand": lambda a, v: 3 * a - 2 * v,
    "contract_out": lambda a, v: 1.5 * a - 0.5 * v,
    "contract_in": lambda a, v: 0.5 * a + 0.5 * v,
    "shrink": lambda a, v: a + 0.5 * (v - a),
}
_CLIP_BOXES = [(-1.0, 1.0), (0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0), (0.0, 0.0),
               (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0)]
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 0.5]


def _step_maps(lows, highs):
    clip, *steps = solvers._box_steps(lows, highs)
    maps = dict(zip(list(_STEP_EXPRESSIONS)[1:], steps))
    maps["clip"] = lambda a, v: clip(v)
    return maps


def _coordinate_cases():
    """(a, v, lo, hi) with a and v special or on a bound."""
    return [(a, v, lo, hi) for lo, hi in _CLIP_BOXES
            for a in _SPECIAL + [lo, hi] for v in _SPECIAL + [lo, hi]]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_fused_steps_are_np_clip_of_the_expression_in_one_coordinate():
    for a, v, lo, hi in _coordinate_cases():
        # scipy's bounds of one coordinate have stride 0.
        lower, upper = np.broadcast_to(np.float64(lo), (1,)), np.broadcast_to(np.float64(hi), (1,))
        assert lower.strides == (0,)
        for name, step in _step_maps([lo], [hi]).items():
            expected = np.clip(_STEP_EXPRESSIONS[name](np.array([a]), np.array([v])), lower, upper)
            got = np.array(step([a], [v]))
            assert got.tobytes() == expected.tobytes(), (name, a, v, lo, hi)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_fused_steps_are_np_clip_of_the_expression_in_two_coordinates():
    cases = _coordinate_cases()
    for i, first in enumerate(cases):
        second = cases[(7919 * i + 3) % len(cases)]
        a, v, lows, highs = (list(col) for col in zip(first, second))
        for name, step in _step_maps(lows, highs).items():
            expected = np.clip(_STEP_EXPRESSIONS[name](np.array(a), np.array(v)),
                               np.array(lows), np.array(highs))
            got = np.array(step(a, v))
            assert got.tobytes() == expected.tobytes(), (name, first, second)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_nelder_mead_keeps_a_nan_trial_point_as_scipy_does():
    # On a box near the largest float, 3 * a - 2 * v is inf - inf: np.clip
    # keeps the NaN, and so must the loop, in every dimension.
    nan_calls = []

    def func(x):
        nan_calls.append(bool(np.isnan(x).any()))
        return float(-(x[0] / 1e308 + x[-1] / 1e308))

    for dim in (1, 2, 3):
        start, lower, upper = np.full(dim, 1e308), np.zeros(dim), np.full(dim, 1.7e308)
        nan_calls.clear()
        _assert_same_as_scipy(func, start, lower, upper, 25, 1e-6, 1e-8)
        assert any(nan_calls)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), step=st.sampled_from([0.25, 1.0, 4.0]))
def test_nelder_mead_matches_scipy_on_quantized_objectives_with_inf_regions(dim, seed, step):
    # Values on a coarse grid tie often, and a wall of +inf cuts the box:
    # the order of tied and infinite vertices must be scipy's, which at
    # dim 3 (4 vertices) is numpy's argsort.
    rng = np.random.default_rng(seed)
    lower = -rng.uniform(0.1, 3.0, dim)
    upper = rng.uniform(0.1, 3.0, dim)
    center = rng.uniform(lower, upper)
    wall = rng.uniform(lower, upper)
    k = int(rng.integers(dim))

    def func(x):
        if x[k] < wall[k]:
            return math.inf
        return float(np.floor(np.sum(np.abs(x - center)) / step))

    _assert_same_as_scipy(func, rng.uniform(lower, upper), lower, upper, 400, 1e-6, 1e-8)
