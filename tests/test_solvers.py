import itertools
import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import Bounds, minimize as scipy_minimize
from scipy.stats import qmc

from epflab import solvers
from epflab.errors import AllStartsFailed
from epflab.harness import _solve_at, make_penalty
from epflab.problems import get_problem
from epflab.solvers import SolverConfig, minimize, polish


def test_config_validation():
    for bad in ({"n_starts": 0}, {"n_starts": 1.5}, {"n_starts": "2"}, {"seed": -1},
                {"seed": 0.0}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    # Any integer type is stored as int, which the Sobol batch size needs.
    cfg = SolverConfig(n_starts=np.int64(2), seed=np.uint32(3))
    assert (type(cfg.n_starts), type(cfg.seed)) == (int, int)
    assert cfg == SolverConfig(n_starts=2, seed=3)
    minimize(lambda x: float(x @ x), [-1.0], [1.0], cfg)


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
    # On at most 3 vertices the loop inserts a step's new vertex after the
    # best ones it ties, and a NaN last, instead of sorting again.  That
    # relies on numpy's argsort being this stable order there; a numpy whose
    # small sorts change fails here.
    for length in (2, 3):
        for fs in itertools.product(_ORDER_VALUES, repeat=length):
            fs = list(fs)
            nans = [i for i in range(length) if math.isnan(fs[i])]
            stable = sorted((i for i in range(length) if i not in nans), key=fs.__getitem__)
            assert solvers._argsort(fs) == np.array(fs).argsort().tolist() == stable + nans, fs


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
# The float extremes check ca * a - cv * v where it overflows or lands on subnormals.
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, 1.7976931348623157e308,
            -1.7976931348623157e308, 5e-324, -5e-324]


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
            with np.errstate(over="ignore"):
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
            with np.errstate(over="ignore"):
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


def _full_multistart(func, lower, upper, cfg):
    """``minimize`` as it was before ``stop_below``: every start runs."""
    lower, upper = solvers._box(lower, upper)
    starts = solvers._finite_starts(func, lower, upper, cfg)
    best_x, best_f, values, nfev, failures = None, math.inf, [], 0, 0
    for start in starts:
        x, f_val, calls, hit_cap = solvers._nelder_mead(
            func, start, lower, upper, solvers.ITERS_PER_DIM, solvers.START_XATOL,
            solvers.START_FATOL)
        values.append(f_val)
        nfev += calls
        failures += hit_cap
        if f_val < best_f:
            best_f, best_x = f_val, x
    agreeing = sum(1 for v in values if v <= best_f + solvers.AGREE_RTOL * (1.0 + abs(best_f)))
    return solvers.MinimizeResult(x=best_x, value=best_f, n_starts_used=len(starts),
                                  n_starts_agreeing=agreeing, nfev=nfev,
                                  n_local_failures=failures)


def _wells(x):
    """Several local minima of distinct depth on [-3, 3]^2."""
    return float(np.sin(3.0 * x[0]) * np.cos(2.0 * x[1]) + 0.1 * x[0] + 0.05 * x @ x)


def _counting(func):
    calls = []

    def counted(x):
        calls.append(x.copy())
        return func(x)

    return counted, calls


def _same_result(a, b):
    assert np.array_equal(a.x, b.x) and a.x.dtype == b.x.dtype
    assert float(a.value).hex() == float(b.value).hex()
    assert ((a.n_starts_used, a.n_starts_agreeing, a.nfev, a.n_local_failures)
            == (b.n_starts_used, b.n_starts_agreeing, b.nfev, b.n_local_failures))


@pytest.mark.parametrize("n_starts, seed", [(1, 0), (6, 0), (9, 4)])
def test_default_bound_runs_every_start_field_by_field(n_starts, seed):
    box = np.array([-3.0, -3.0]), np.array([3.0, 3.0])
    cfg = SolverConfig(n_starts=n_starts, seed=seed)
    new, new_calls = _counting(_wells)
    ref, ref_calls = _counting(_wells)
    result = minimize(new, *box, cfg)
    _same_result(result, _full_multistart(ref, *box, cfg))
    assert result.n_starts_used == n_starts
    assert len(new_calls) == len(ref_calls)
    assert all(np.array_equal(a, b) for a, b in zip(new_calls, ref_calls))


def test_default_bound_runs_every_start_past_a_minimum_of_minus_inf():
    def pit(x):  # -inf on a strip that some starts fall into
        return -math.inf if x[0] > 1.0 else _wells(x)

    box = np.array([-3.0, -3.0]), np.array([3.0, 3.0])
    cfg = SolverConfig(n_starts=8, seed=0)
    values, ends = _start_values(pit, *box, cfg)
    assert values[0] > -math.inf and -math.inf in values[:-1]
    counted, calls = _counting(pit)
    with pytest.raises(AllStartsFailed):
        minimize(counted, *box, cfg)
    assert len(calls) == ends[-1]


def _start_values(func, lower, upper, cfg):
    """Each start's local minimum, and the F calls made once that start has ended."""
    values, ends = [], []
    loop = solvers._nelder_mead
    counted, calls = _counting(func)

    def recording(*args):
        out = loop(*args)
        values.append(out[1])
        ends.append(len(calls))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_nelder_mead", recording)
        try:
            minimize(counted, lower, upper, cfg)
        except AllStartsFailed:  # raised after the last start where a minimum is -inf
            pass
    return values, ends


def test_finite_bound_stops_at_the_first_start_at_or_below_it():
    box = np.array([-3.0, -3.0]), np.array([3.0, 3.0])
    cfg = SolverConfig(n_starts=8, seed=0)
    values, ends = _start_values(_wells, *box, cfg)
    assert len(set(values)) > 2 and min(values) < values[0]
    for k in range(1, len(values)):
        bound = values[k]
        first = next(i for i, v in enumerate(values) if v <= bound)
        counted, calls = _counting(_wells)
        result = minimize(counted, *box, cfg, stop_below=bound)
        # No F call after the first start at or below the bound ended.
        assert len(calls) == ends[first]
        ran = values[:first + 1]
        assert result.n_starts_used == first + 1
        assert result.value == min(ran) <= bound
        assert result.n_starts_agreeing == sum(
            1 for v in ran if v <= result.value + solvers.AGREE_RTOL * (1.0 + abs(result.value)))
    # A bound below every start's minimum stops nothing.
    _same_result(minimize(_wells, *box, cfg, stop_below=min(values) - 1.0),
                 _full_multistart(_wells, *box, cfg))


def test_n_starts_used_counts_the_starts_that_ran():
    box = np.array([-3.0, -3.0]), np.array([3.0, 3.0])
    cfg = SolverConfig(n_starts=8, seed=0)
    values, _ = _start_values(_wells, *box, cfg)
    full = minimize(_wells, *box, cfg)
    assert full.n_starts_used == len(values) == 8
    # Stopped at the first start: one start ran, and it agrees with itself.
    first = minimize(_wells, *box, cfg, stop_below=values[0])
    assert (first.n_starts_used, first.n_starts_agreeing) == (1, 1)
    assert first.value == values[0]
    for bound in values:
        res = minimize(_wells, *box, cfg, stop_below=bound)
        assert 1 <= res.n_starts_agreeing <= res.n_starts_used <= full.n_starts_used


def _frozen_nelder_mead(func, start, lower, upper, iters_per_dim, xatol, fatol):
    """``solvers._nelder_mead`` as it was before the simplex was kept in
    order: a full argsort after every step (numpy's, which ``_argsort``
    equals) and every F call through one counting closure."""
    lows, highs = lower.tolist(), upper.tolist()
    n = len(lows)
    clip, reflect, expand, contract_out, contract_in, shrink_toward = solvers._box_steps(lows, highs)
    nfev = 0

    def value(p):
        nonlocal nfev
        nfev += 1
        fx = func(np.array(p))
        return float(fx if isinstance(fx, float) else np.asarray(fx).item())

    def ordered():
        idx = np.array(fs).argsort().tolist()
        return [sim[i] for i in idx], [fs[i] for i in idx]

    x0 = clip(start.tolist())
    sim = [x0]
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    sim = [clip([2 * hi - v if v > hi else v for v, hi in zip(p, highs)]) for p in sim]
    fs = [value(p) for p in sim]
    sim, fs = ordered()
    sim, fs = ordered()
    maxiter = iters_per_dim * n
    it = 1
    while it < maxiter:
        f0, s0, w = fs[0], sim[0], sim[-1]
        if (all([abs(f0 - f) <= fatol for f in fs[1:]])
                and all([abs(v - u) <= xatol for p in sim[1:] for v, u in zip(p, s0)])):
            break
        xbar = [reduce(add, col, 0.0) / n for col in zip(*sim[:-1])]
        xr = reflect(xbar, w)
        fxr = value(xr)
        if fxr < f0:
            xe = expand(xbar, w)
            fxe = value(xe)
            sim[-1], fs[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fs[-2]:
            sim[-1], fs[-1] = xr, fxr
        else:
            if fxr < fs[-1]:
                xc = contract_out(xbar, w)
                fxc = value(xc)
                shrink = not fxc <= fxr
            else:
                xc = contract_in(xbar, w)
                fxc = value(xc)
                shrink = not fxc < fs[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = shrink_toward(s0, sim[j])
                    fs[j] = value(sim[j])
            else:
                sim[-1], fs[-1] = xc, fxc
        it += 1
        sim, fs = ordered()
    return np.array(sim[0]), float(np.array(fs).min()), nfev, it >= maxiter


def _assert_same_as_frozen(func, start, lower, upper, budget):
    """``_nelder_mead`` and its frozen copy make the same F calls and return
    the same bits."""
    new_calls, ref_calls = [], []

    def logged(calls):
        return lambda x: calls.append(x.tobytes()) or func(x)

    new = solvers._nelder_mead(logged(new_calls), start.copy(), lower, upper, *budget)
    ref = _frozen_nelder_mead(logged(ref_calls), start.copy(), lower, upper, *budget)
    assert new_calls == ref_calls
    assert new[0].tobytes() == ref[0].tobytes()
    assert np.float64(new[1]).tobytes() == np.float64(ref[1]).tobytes()
    assert new[2:] == ref[2:] == (len(ref_calls), ref[3])


def _objective(rng, dim, step, region, as_array):
    """A quantized distance (ties and plateaus, coarser with a larger step)
    that is +inf, -inf or NaN past a wall on one coordinate; as_array
    returns it as a size-1 array."""
    center = rng.uniform(-1.0, 1.0, dim)
    wall = rng.uniform(-1.0, 1.0)
    k = int(rng.integers(dim))
    outside = {"none": None, "+inf": math.inf, "-inf": -math.inf, "nan": math.nan}[region]

    def func(x):
        if outside is not None and x[k] < wall:
            value = outside
        elif step:
            value = float(np.floor(np.sum(np.abs(x - center)) / step))
        else:
            value = float(np.sum((x - center) ** 2))
        return np.array([value]) if as_array else value

    return func


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       step=st.sampled_from([0.0, 0.25, 1.0, 4.0]), region=st.sampled_from(["none", "+inf", "-inf", "nan"]),
       as_array=st.booleans(), flat=st.booleans(),
       budget=st.sampled_from([(400, 1e-6, 1e-8), (1600, 1e-9, 1e-11), (1, 1e-6, 1e-8), (3, 1e-9, 1e-11)]))
# Found by search: unstable ties on 5 vertices, where only a full argsort
# keeps numpy's order, and a simplex holding two NaN values.
@example(dim=4, seed=7, step=0.25, region="none", as_array=False, flat=False,
         budget=(400, 1e-6, 1e-8))
@example(dim=4, seed=18, step=4.0, region="+inf", as_array=False, flat=False,
         budget=(400, 1e-6, 1e-8))
@example(dim=2, seed=1014, step=0.0, region="nan", as_array=False, flat=False,
         budget=(400, 1e-6, 1e-8))
def test_nelder_mead_matches_its_frozen_copy(dim, seed, step, region, as_array, flat, budget):
    rng = np.random.default_rng(seed)
    lower = -rng.uniform(0.1, 2.0, dim)
    upper = rng.uniform(0.1, 2.0, dim)
    if flat:  # one coordinate of zero width
        k = int(rng.integers(dim))
        lower[k] = upper[k] = rng.uniform(-1.0, 1.0)
    func = _objective(rng, dim, step, region, as_array)
    start = rng.uniform(lower, upper)
    _assert_same_as_frozen(func, start, lower, upper, budget)


# How the two-coordinate property changes one drawn coordinate of the box and start.
_COORDINATE_KINDS = ["drawn", "zero", "minus zero", "upper", "signed-zero upper", "zero box",
                     "minus-zero lower", "half-step upper", "huge", "subnormal"]


def _apply_kind(kind, k, lower, upper, start):
    if kind == "zero":  # the 0.00025 step
        start[k] = 0.0
    elif kind == "minus zero":
        start[k] = -0.0
    elif kind == "upper":  # the 5 % step leaves the box and is reflected into it
        start[k] = upper[k]
    elif kind == "signed-zero upper":  # +0.0 clipped to the bound -0.0
        upper[k], start[k] = -0.0, 0.0
    elif kind == "zero box":  # zero width, with bounds +0.0 and -0.0
        lower[k], upper[k], start[k] = 0.0, -0.0, -0.0
    elif kind == "minus-zero lower":  # a negative draw and every exact zero clip to -0.0
        lower[k] = -0.0
    elif kind == "half-step upper":  # the 0.00025 step is reflected to +0.0 beside two -0.0
        upper[k], start[k] = 0.00025 / 2, -0.0
    elif kind == "huge":  # sums of two coordinates overflow
        lower[k], upper[k], start[k] = 0.0, 1.7e308, 1e308
    elif kind == "subnormal":  # halving rounds
        lower[k], upper[k], start[k] = -4e-323, 4e-323, 5e-324


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kinds=st.tuples(*[st.sampled_from(_COORDINATE_KINDS)] * 2),
       step=st.sampled_from([0.0, 0.25, 1.0, 4.0]), region=st.sampled_from(["none", "+inf", "-inf", "nan"]),
       as_array=st.booleans(), flat=st.booleans(), fatol_units=st.booleans(),
       budget=st.sampled_from([(400, 1e-6, 1e-8), (1600, 1e-9, 1e-11), (1, 1e-6, 1e-8), (3, 1e-9, 1e-11)]))
# The first example draws what the dim=2, seed=1014 example above draws (two
# NaN values in one simplex); each other one, found by search, tells one
# mutant of the kernel from it, named in its comment.
@example(seed=1014, kinds=("drawn", "drawn"), step=0.0, region="nan", as_array=False,
         flat=False, fatol_units=False, budget=(400, 1e-6, 1e-8))
# A signed-zero tie on the lower bound (the clip's >=):
@example(seed=152, kinds=("minus-zero lower", "zero"), step=1.0, region="+inf", as_array=False,
         flat=False, fatol_units=False, budget=(1600, 1e-9, 1e-11))
# A signed-zero tie on the upper bound (the clip's <=):
@example(seed=541, kinds=("zero box", "minus zero"), step=4.0, region="-inf", as_array=False,
         flat=False, fatol_units=False, budget=(1, 1e-6, 1e-8))
# The reflection 2 * c - 1 * w, not c + (c - w):
@example(seed=516, kinds=("signed-zero upper", "zero"), step=0.0, region="none", as_array=True,
         flat=False, fatol_units=False, budget=(400, 1e-6, 1e-8))
# The +0.0 that starts the centroid sum:
@example(seed=842, kinds=("half-step upper", "minus-zero lower"), step=0.0, region="nan", as_array=True,
         flat=True, fatol_units=True, budget=(3, 1e-9, 1e-11))
# 0.5 * a + 0.5 * v against 0.5 * (a + v) on subnormals:
@example(seed=613, kinds=("subnormal", "half-step upper"), step=0.0, region="nan", as_array=True,
         flat=True, fatol_units=True, budget=(400, 1e-6, 1e-8))
# The shrink's a + 0.5 * (v - a) where a + v overflows:
@example(seed=391, kinds=("huge", "upper"), step=1.0, region="-inf", as_array=False,
         flat=False, fatol_units=False, budget=(1, 1e-6, 1e-8))
# The worst value, not the middle one, in the stop test:
@example(seed=714, kinds=("signed-zero upper", "drawn"), step=0.0, region="nan", as_array=True,
         flat=False, fatol_units=False, budget=(400, 1e-6, 1e-8))
# The order after a shrink:
@example(seed=72, kinds=("upper", "drawn"), step=0.25, region="+inf", as_array=True,
         flat=False, fatol_units=False, budget=(400, 1e-6, 1e-8))
# An expansion that ties the reflection:
@example(seed=563, kinds=("half-step upper", "upper"), step=0.0, region="-inf", as_array=True,
         flat=False, fatol_units=True, budget=(400, 1e-6, 1e-8))
# A NaN left in the simplex when the budget runs out:
@example(seed=590, kinds=("minus-zero lower", "zero"), step=4.0, region="nan", as_array=False,
         flat=True, fatol_units=True, budget=(1, 1e-6, 1e-8))
def test_two_coordinate_kernel_matches_the_frozen_loop(seed, kinds, step, region, as_array, flat,
                                                       fatol_units, budget):
    # Drawn as test_nelder_mead_matches_its_frozen_copy draws dim=2, then
    # each coordinate changed as its kind says.  In units of fatol, two
    # plateaus of the objective are exactly fatol apart.
    rng = np.random.default_rng(seed)
    lower = -rng.uniform(0.1, 2.0, 2)
    upper = rng.uniform(0.1, 2.0, 2)
    if flat:
        k = int(rng.integers(2))
        lower[k] = upper[k] = rng.uniform(-1.0, 1.0)
    objective = _objective(rng, 2, step, region, as_array)
    func = (lambda x: objective(x) * budget[2]) if fatol_units else objective
    start = rng.uniform(lower, upper)
    for k, kind in enumerate(kinds):
        _apply_kind(kind, k, lower, upper, start)
    _assert_same_as_frozen(func, start, lower, upper, budget)


def test_the_two_coordinate_kernel_runs_on_two_coordinates_only(monkeypatch):
    runs = []
    kernel = solvers._nelder_mead_2d

    def counted(*args):
        runs.append([len(vertex) for vertex in args[1]])
        return kernel(*args)

    monkeypatch.setattr(solvers, "_nelder_mead_2d", counted)
    func = lambda x: float(np.sum((x - 0.3) ** 2))
    for dim in (1, 2, 3):
        runs.clear()
        box = np.full(dim, -1.0), np.full(dim, 1.0)
        minimize(func, *box, SolverConfig(n_starts=3, seed=0))
        polish(func, np.zeros(dim), *box)
        # One run per start and one for the polish, each on a 3-vertex simplex of pairs.
        assert runs == ([[2, 2, 2]] * 4 if dim == 2 else []), dim


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_stop_test_includes_both_tolerances(dim):
    # From the origin every step is 0.00025 and the values are 0 and 1, so
    # with xatol = 0.00025 and fatol = 1 the run stops at its start simplex.
    func = lambda x: float(x[0] > 0.0)
    box = np.full(dim, -1.0), np.full(dim, 1.0)
    x, value, nfev, hit_cap = solvers._nelder_mead(func, np.zeros(dim), *box, 400, 0.00025, 1.0)
    assert (x.tobytes(), value, nfev, hit_cap) == (np.zeros(dim).tobytes(), 0.0, dim + 1, False)


def _fresh_starts(func, lower, upper, n_starts, seed):
    """The finite starts of a fresh sampler, drawn as ``_finite_starts``
    draws them, and the number of points drawn."""
    size = 1 << (n_starts - 1).bit_length()
    sampler = qmc.Sobol(d=lower.shape[0], scramble=True, seed=seed)
    starts, drawn = [], 0
    while len(starts) < n_starts and drawn < solvers.DRAWS_PER_START * n_starts:
        for row in sampler.random(size):
            drawn += 1
            pt = lower + row * (upper - lower)
            if math.isfinite(func(pt)) and len(starts) < n_starts:
                starts.append(pt.tobytes())
    return starts, drawn


@pytest.mark.parametrize("corner", [False, True])
def test_cached_sobol_starts_equal_fresh_draws(corner):
    # Finite only on a corner of an eighth of the box: the starts need a later batch.
    func = (lambda x: 0.0 if x[0] > 0.75 and x[1] > 0.5 else math.inf) if corner else _wells
    lower, upper = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    cfg = SolverConfig(n_starts=4, seed=1234)
    expected, drawn = _fresh_starts(func, lower, upper, cfg.n_starts, cfg.seed)
    assert len(expected) == cfg.n_starts and (drawn > 4) == corner
    solvers._sobol_draws.cache_clear()
    for _ in range(2):  # drawn, then read from the cache
        starts = solvers._finite_starts(func, lower, upper, cfg)
        assert [pt.tobytes() for pt in starts] == expected
    _, batches = solvers._sobol_draws(2, cfg.seed, 4)
    assert len(batches) == (drawn + 3) // 4
    for batch in batches:
        assert not batch.flags.writeable
        with pytest.raises(ValueError):
            batch[0, 0] = 0.5


def test_sobol_draws_are_kept_per_dim_seed_and_batch_size():
    solvers._sobol_draws.cache_clear()
    keys = [(2, 7, 4), (3, 7, 4), (2, 8, 4), (2, 7, 8)]
    for dim, seed, n_starts in keys:
        box = np.full(dim, -1.0), np.full(dim, 1.0)
        starts = solvers._finite_starts(_wells, *box, SolverConfig(n_starts=n_starts, seed=seed))
        assert [pt.tobytes() for pt in starts] == _fresh_starts(_wells, *box, n_starts, seed)[0]
    entries = [solvers._sobol_draws(*key) for key in keys]
    assert solvers._sobol_draws.cache_info().currsize == len(keys)
    assert len({id(sampler) for sampler, _ in entries}) == len(keys)
    assert [batches[0].shape for _, batches in entries] == [(4, 2), (4, 3), (4, 2), (8, 2)]


def test_minimize_builds_a_task_sampler_once(monkeypatch):
    built = []
    sobol = qmc.Sobol

    def counting(*args, **kwargs):
        built.append(kwargs)
        return sobol(*args, **kwargs)

    solvers._sobol_draws.cache_clear()
    monkeypatch.setattr(qmc, "Sobol", counting)
    box = np.array([-3.0, -3.0]), np.array([3.0, 3.0])
    cfg = SolverConfig(n_starts=3, seed=99)
    first, second = minimize(_wells, *box, cfg), minimize(_wells, *box, cfg)
    _same_result(first, second)
    assert built == [{"d": 2, "scramble": True, "seed": 99}]
    solvers._sobol_draws.cache_clear()
