"""A staged penalty handle is value(state(x), c) with a per-handle memo of
state(x); it must give the one-shot F bit for bit and never keep an error."""

import math

import numpy as np
import pytest

from epflab import harness, smoothpen
from epflab.errors import NegativeObjective, NonFiniteEvaluation
from epflab.harness import make_penalty
from epflab.penalties import QFunction, default_phi, linear_eval, qpen_eval
from epflab.problems import ConstrainedProblem, SocBlock, get_problem, registry
from epflab.smoothpen import c1_penalty_sdp, c1_penalty_soc

STAGED = ("linear", "qorder", "c1-socp", "c1-sdp")


def _one_shot(problem, kind):
    """The one-shot F of a kind at the defaults of its builder."""
    phi = default_phi(problem)
    if kind == "linear":
        return lambda x, c: linear_eval(problem, phi, x, c)
    if kind == "qorder":
        return lambda x, c: qpen_eval(QFunction.q_order(1.0), problem, phi, x, c)
    if kind == "c1-socp":
        return lambda x, c: c1_penalty_soc(problem, x, c)
    return lambda x, c: c1_penalty_sdp(problem, x, c)


def _outcome(func, x, c):
    """float.hex of F, or the type and message of what it raised."""
    try:
        return float.hex(func(x, c))
    except Exception as exc:  # compared, not swallowed
        return f"{type(exc).__name__}: {exc}"


def _points(problem):
    """Random points of the box and beyond it (where a c1 barrier is +inf),
    points with -0.0 coordinates, and the certified optimum."""
    rng = np.random.default_rng(7)
    lo, hi = problem.box()
    points = [rng.uniform(1.5 * lo, 1.5 * hi) for _ in range(12)]
    points.append(hi.copy())
    points.append(problem.certificate.x_star.copy())
    zero = np.zeros(problem.dim)
    neg = np.full(problem.dim, -0.0)
    mixed = np.where(np.arange(problem.dim) % 2 == 0, -0.0, 1.0)
    return points + [zero, neg, mixed, 0.0 * mixed]


def _sequences(points):
    """(x, c) pairs that revisit each x at alternating c, both solve by
    solve (every point at one c, then the next c) and point by point."""
    by_c = [(x, c) for c in (1.0, 3.0, 1.0, 3.0, 7.5, 7.5) for x in points]
    by_x = [(x, c) for x in points for c in (2.0, 5.0, 2.0, 0.5)]
    return by_c + by_x


@pytest.mark.parametrize("kind", STAGED)
@pytest.mark.parametrize("problem", registry(), ids=lambda p: p.name)
def test_memo_matches_one_shot_bit_for_bit(problem, kind):
    handle = make_penalty(problem, kind)
    reference = _one_shot(problem, kind)
    seen = set()
    with np.errstate(all="ignore"):
        for x, c in _sequences(_points(problem)):
            seen.add(_outcome(reference, x, c))
            assert _outcome(handle, x, c) == _outcome(reference, x, c), (x.tolist(), c)
    if kind in problem.penalties and kind.startswith("c1"):
        assert "inf" in seen, "no point outside the barrier domain"


def _nan_past_half():
    # f = x + 1 >= 0 on [-1, 1]; the SOC block g = (1, x) turns NaN past x = 0.5.
    def g(x):
        return np.array([1.0, x[0]]) if x[0] <= 0.5 else np.full(2, np.nan)

    return ConstrainedProblem(name="nan-past-half", dim=1, objective=lambda x: float(x[0] + 1.0),
                              gradient=lambda x: np.ones(1),
                              soc_blocks=(SocBlock(dim=2, g=g, jac=lambda x: np.array([[0.0], [1.0]])),),
                              lower=np.array([-1.0]), upper=np.array([1.0]))


@pytest.mark.parametrize("kind", ("linear", "qorder", "c1-socp"))
def test_errors_are_never_cached(kind):
    handle = make_penalty(_nan_past_half(), kind)
    bad = np.array([0.7])
    for c in (2.0, 2.0, 3.0, 2.0):
        assert math.isfinite(handle(np.array([0.2]), c))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteEvaluation):
            handle(bad, c)


def test_negative_objective_raises_on_every_call():
    handle = make_penalty(get_problem("toy-lin-1"), "qorder")  # f = -x < 0 for x > 0
    for c in (1.0, 1.0, 2.0, 1.0):
        assert handle(np.array([-1.0]), c) == 1.0  # feasible: Q(f, 0) = f
        with pytest.raises(NegativeObjective):
            handle(np.array([1.0]), c)


@pytest.mark.parametrize("kind", STAGED)
def test_nonpositive_c_raises_before_any_evaluation(kind, monkeypatch):
    problem = get_problem("toy-sdp-1" if kind == "c1-sdp" else "toy-socp-1")
    handle = make_penalty(problem, kind)

    def evaluated(*args, **kwargs):
        pytest.fail("F evaluated something at a nonpositive c")

    for name in ("linear_state", "qpen_state", "c1_state_soc", "c1_state_sdp"):
        monkeypatch.setattr(harness, name, evaluated)
    for c in (0.0, -1.0, -0.0):
        with pytest.raises(ValueError, match="must be positive"):
            handle(problem.certificate.x_star, c)


@pytest.mark.parametrize("kind", STAGED)
def test_wrong_shape_raises_after_the_same_bytes_were_cached(kind):
    problem = get_problem("toy-sdp-1" if kind == "c1-sdp" else "toy-eq-1")
    handle, reference = make_penalty(problem, kind), _one_shot(problem, kind)
    x = np.array([0.9, 0.8])
    assert math.isfinite(handle(x, 2.0))
    for wrong in (x.reshape(1, 2), x.reshape(2, 1)):
        expected = _outcome(reference, wrong, 2.0)
        assert not expected.startswith("0x"), expected
        assert _outcome(handle, wrong, 2.0) == expected


def _count_estimates(monkeypatch):
    """Record the x of every SOC multiplier estimate."""
    seen = []
    estimate = smoothpen.estimate_multipliers_soc

    def counting(problem, x, *args, **kwargs):
        seen.append(np.asarray(x, dtype=float).tobytes())
        return estimate(problem, x, *args, **kwargs)

    monkeypatch.setattr(smoothpen, "estimate_multipliers_soc", counting)
    return seen


def test_estimates_are_shared_across_c(monkeypatch):
    seen = _count_estimates(monkeypatch)
    problem = get_problem("toy-socp-1")
    x, y = np.array([0.9, 1.1]), np.array([0.7, 0.6])

    handle = make_penalty(problem, "c1-socp")
    handle(x, 1.0)
    handle(x, 2.0)
    assert seen == [x.tobytes()]

    # A state found at the c before is copied into the current c's set,
    # so x visited at every c stays known.
    seen.clear()
    handle = make_penalty(problem, "c1-socp")
    for c in (1.0, 2.0, 3.0, 1.0):
        handle(x, c)
    assert seen == [x.tobytes()]

    # Two changes of c without x evict it: only the current and the
    # previous c's states are kept.
    seen.clear()
    handle = make_penalty(problem, "c1-socp")
    handle(x, 1.0)
    handle(y, 2.0)
    handle(y, 3.0)
    handle(x, 1.0)
    assert seen == [x.tobytes(), y.tobytes(), x.tobytes()]

    # Each handle owns its memo.
    seen.clear()
    first, second = make_penalty(problem, "c1-socp"), make_penalty(problem, "c1-socp")
    assert first(x, 1.0) == second(x, 1.0)
    assert seen == [x.tobytes(), x.tobytes()]


def test_signed_zero_is_its_own_key(monkeypatch):
    seen = _count_estimates(monkeypatch)
    handle = make_penalty(get_problem("toy-socp-1"), "c1-socp")
    for x in (np.array([0.0, 0.5]), np.array([-0.0, 0.5]), np.array([0.0, 0.5])):
        handle(x, 1.0)
    assert len(seen) == 2
