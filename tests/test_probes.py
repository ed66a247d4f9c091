"""The sampled localization probes call F only where f(x) cannot settle a
sample: each kind's floor beta(c) bounds F(x, c) >= f(x) - beta(c), the
probes give the verdicts of their frozen copies, which call F at every
sample, and their error paths are kept."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epflab import harness
from epflab.errors import NonFiniteEvaluation
from epflab.harness import (PenaltyHandle, local_exactness_probe, make_penalty,
                            sublevel_bounded_probe)
from epflab.numerics import norm
from epflab.problems import (KnownSolution, affine_problem, flat_multipliers, get_problem, point_floats,
                             registry)


# The two sampled probes as they were before they settled samples by f,
# kept as a frozen reference: F at every sample, in draw order.
def _frozen_local_exactness_probe(penalty, x_star, c, seed=0):
    x_star = np.asarray(x_star, dtype=float)
    problem = penalty.problem
    lower, upper = problem.box()
    rng = np.random.default_rng(seed)
    dim = x_star.shape[0]
    samples = []
    for _ in range(harness.LOCAL_SAMPLES):
        direction = rng.normal(size=dim)
        length = norm(direction)
        if length == 0.0:
            continue
        r = harness.LOCAL_RADIUS * rng.uniform() ** (1.0 / dim)
        samples.append(np.clip(x_star + direction / length * r, lower, upper))
    base = penalty(x_star, c)
    return all(penalty(x, c) >= base - harness.PROBE_SLACK for x in samples)


def _shell(problem, seed):
    """The sublevel probe's samples outside the box, in draw order."""
    lower, upper = problem.box()
    center = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-harness.SUBLEVEL_EXPANSION, harness.SUBLEVEL_EXPANSION,
                        size=(harness.SUBLEVEL_SAMPLES, problem.dim))
    points = center + draws * half
    return points[~(np.all(points >= lower, axis=1) & np.all(points <= upper, axis=1))]


def _frozen_sublevel_bounded_probe(penalty, c0, f_star, seed=0):
    shell = _shell(penalty.problem, seed)
    for point in shell:
        if penalty(point, c0) < f_star - harness.PROBE_SLACK:
            return False
    return len(shell) > 0


def _toy_nc_1():
    # min -x^2 s.t. x = 0 on [-2, 2]: a nonconvex objective (ROADMAP item 3).
    return affine_problem(
        "toy-nc-1", [-2.0], [2.0], penalties=("linear", "al-hpr"), weight=-1.0, eq=([[1.0]], None),
        certificate=KnownSolution(x_star=np.array([0.0]), f_star=0.0, mu_star=np.array([0.0])))


PROBLEMS = registry() + [_toy_nc_1()]


def _floor_cases():
    """(problem, kind, params) of every kind on every problem it fits: qorder
    where the problem lists it (f >= 0 everywhere), al-hpr at the
    certificate's multipliers, the C1 kind of the problem's cone at three alphas."""
    for p in PROBLEMS:
        yield p, "linear", {}
        yield p, "al-hpr", {}
        for q in (0.25, 0.5, 1.0, 2.0) if "qorder" in p.penalties else ():
            yield p, "qorder", {"q": q}
        for alpha in (0.25, 1.0, 4.0):
            yield p, "c1-sdp" if p.sdp_block is not None else "c1-socp", {"alpha": alpha}


FLOOR_CASES = list(_floor_cases())


def _check_floor(handle, x, c):
    """value(state(x), c) >= f(x) - beta(c) up to the settle allowance;
    returns F(x, c)."""
    f_val, beta = handle.problem.f(x), handle.floor(c)
    value = handle.value(handle.state(point_floats(handle.problem, x)), c)
    assert value >= f_val - beta - harness.SETTLE_RTOL * (abs(f_val) + beta), (x, c, value, f_val)
    return value


def _doubled_box_point(problem, fractions):
    """The point at ``fractions`` (each in [-1, 1]) of the box scaled twofold about its center."""
    center = 0.5 * (problem.lower + problem.upper)
    half = 0.5 * (problem.upper - problem.lower)
    return center + harness.SUBLEVEL_EXPANSION * half * np.asarray(fractions, dtype=float)


def _off_set_multipliers(draw, problem):
    """Cone and equality multipliers drawn in [-10, 10], off the multiplier set
    but for a null set; the SDP multiplier is symmetric."""
    entries = st.floats(-10.0, 10.0)
    lam = [np.array(draw(st.lists(entries, min_size=b.dim, max_size=b.dim)))
           for b in problem.soc_blocks]
    lam_sdp = None
    if problem.sdp_block is not None:
        k = problem.sdp_block.order
        m = np.array(draw(st.lists(entries, min_size=k * k, max_size=k * k))).reshape(k, k)
        lam_sdp = m + m.T
    mu = draw(st.lists(entries, min_size=problem.n_eq, max_size=problem.n_eq))
    return {"lam": flat_multipliers(problem, lam, lam_sdp), "mu": mu}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_kind_lies_above_f_minus_its_floor(data):
    problem, kind, params = data.draw(st.sampled_from(FLOOR_CASES))
    if kind == "al-hpr" and data.draw(st.booleans()):
        params = _off_set_multipliers(data.draw, problem)
    handle = make_penalty(problem, kind, **params)
    unit = st.floats(-1.0, 1.0)
    fractions = data.draw(st.lists(unit, min_size=problem.dim, max_size=problem.dim))
    c = 10.0 ** data.draw(st.floats(-3.0, 4.0))
    _check_floor(handle, _doubled_box_point(problem, fractions), c)


def test_the_floor_holds_on_a_grid_on_both_sides_of_the_barrier_domain():
    # Every case at x* and on a 9-point-per-coordinate grid of the doubled box,
    # at five c; each C1 case meets points inside Omega_alpha (finite F) and
    # outside it (+inf).
    ticks = np.linspace(-1.0, 1.0, 9)
    for problem, kind, params in FLOOR_CASES:
        handle = make_penalty(problem, kind, **params)
        grid = np.stack(np.meshgrid(*[ticks] * problem.dim), axis=-1).reshape(-1, problem.dim)
        points = [problem.certificate.x_star] + [_doubled_box_point(problem, fr) for fr in grid]
        values = [_check_floor(handle, x, c) for x in points for c in (1e-3, 0.5, 3.0, 512.0, 1e4)]
        if kind.startswith("c1"):
            assert any(math.isinf(v) for v in values) and any(math.isfinite(v) for v in values), \
                (problem.name, kind, params)


def test_the_al_hpr_floor_is_attained():
    # On toy-nc-1 with mu = 3, <mu, h> + (c/2) h^2 is -mu^2 / 2c at h = x = -mu / c.
    c, mu = 7.0, 3.0
    handle = make_penalty(_toy_nc_1(), "al-hpr", mu=[mu])
    x = np.array([-mu / c])
    assert handle.floor(c) == mu * mu / (2.0 * c)
    assert abs(handle(x, c) - (handle.problem.f(x) - handle.floor(c))) <= 1e-15


def test_a_floor_per_kind():
    p = get_problem("toy-socp-2")  # one SOC block and one equality
    assert make_penalty(p, "linear").floor(3.0) == 0.0
    assert make_penalty(p, "qorder", q=0.5).floor(3.0) == 0.0
    assert make_penalty(p, "c1-socp", alpha=4.0).floor(2.0) == 2.0
    al = make_penalty(p, "al-hpr", lam=[3.0, 4.0], mu=[1.0])
    assert al.floor(2.0) == (25.0 + 1.0) / 4.0
    # A handle built without a floor has none.
    assert PenaltyHandle(p, al.state, al.value, al.params).floor is None


PAIRS = [(p.name, kind) for p in registry() for kind in p.penalties]


@pytest.mark.parametrize("pair", PAIRS, ids="/".join)
def test_probes_give_the_frozen_verdicts_on_every_registry_pair(pair):
    p = get_problem(pair[0])
    pen, cert = make_penalty(p, pair[1]), p.certificate
    for seed in (0, 1):
        for c in (0.5, 512.0):
            assert (local_exactness_probe(pen, cert.x_star, c, seed)
                    == _frozen_local_exactness_probe(pen, cert.x_star, c, seed))
            assert (sublevel_bounded_probe(pen, c, cert.f_star, seed)
                    == _frozen_sublevel_bounded_probe(pen, c, cert.f_star, seed))


def test_probes_give_the_frozen_verdicts_where_they_fail():
    nc, lin, eq = _toy_nc_1(), get_problem("toy-lin-1"), get_problem("toy-eq-1")
    # -x^2 + c |x| and -x^2 + (c/2) x^2 lie below f* = 0 on the shell at c = 1;
    # at c = 0.5 toy-lin-1's linear F and toy-eq-1's quadratic penalty (mu = 0)
    # lie below F(x*, c) near x*.
    sublevel = [(make_penalty(nc, "linear"), 1.0), (make_penalty(nc, "al-hpr", mu=[0.0]), 1.0)]
    local = [(make_penalty(lin, "linear"), 0.5), (make_penalty(eq, "al-hpr", mu=[0.0]), 0.5)]
    for seed in (0, 1, 2):
        for pen, c in sublevel:
            f_star = pen.problem.certificate.f_star
            assert not sublevel_bounded_probe(pen, c, f_star, seed)
            assert not _frozen_sublevel_bounded_probe(pen, c, f_star, seed)
        for pen, c in local:
            x_star = pen.problem.certificate.x_star
            assert not local_exactness_probe(pen, x_star, c, seed)
            assert not _frozen_local_exactness_probe(pen, x_star, c, seed)


def _count_F(monkeypatch):
    """The points of every F(x, c) a handle is called at from here on."""
    seen = []
    call = PenaltyHandle.__call__

    def counted(self, x, c):
        seen.append(np.array(x))
        return call(self, x, c)

    monkeypatch.setattr(PenaltyHandle, "__call__", counted)
    return seen


def test_the_sublevel_probe_calls_F_only_where_f_cannot_settle(monkeypatch):
    eq, lin = get_problem("toy-eq-1"), get_problem("toy-lin-1")
    seen = _count_F(monkeypatch)
    # f = ||x||^2 >= 9 beats f* = 2 on all of toy-eq-1's shell: no F call.
    assert sublevel_bounded_probe(make_penalty(eq, "linear"), 512.0, 2.0)
    assert seen == []
    # toy-lin-1's f = -x clears f* = 0 on x < -2 and not on x > 2, which F
    # alone clears: F is called at exactly the x > 2 half, in draw order.
    pen = make_penalty(lin, "linear")
    assert sublevel_bounded_probe(pen, 512.0, 0.0)
    shell = _shell(lin, 0)
    right = shell[shell[:, 0] > 2.0]
    assert 0 < len(right) < len(shell)
    assert len(seen) == len(right) and all(np.array_equal(a, b) for a, b in zip(seen, right))
    # A handle built without a floor settles nothing.
    seen.clear()
    bare = PenaltyHandle(lin, pen.state, pen.value, pen.params)
    assert sublevel_bounded_probe(bare, 512.0, 0.0)
    assert len(seen) == len(shell)


def _recording(problem, seen):
    """``problem`` with an objective that records each point it is called at."""
    objective = problem.objective

    def recorded(x):
        seen.append(np.array(x))
        return objective(x)

    return dataclasses.replace(problem, objective=recorded)


@pytest.mark.parametrize("c0", [0.0, -1.0, math.nan, math.inf])
def test_a_bad_c0_raises_before_anything_is_evaluated(c0, monkeypatch):
    # At c0 = 512 every sample of toy-eq-1/linear is settled by f.
    objective_calls, F_calls = [], _count_F(monkeypatch)
    pen = make_penalty(_recording(get_problem("toy-eq-1"), objective_calls), "linear")
    with pytest.raises(ValueError):
        sublevel_bounded_probe(pen, c0, 2.0)
    assert objective_calls == [] and F_calls == []
    # The local probe's first evaluation, F(x*, c), checks c and raises.
    with pytest.raises(ValueError):
        local_exactness_probe(pen, pen.problem.certificate.x_star, c0)
    assert objective_calls == [] and len(F_calls) == 1


def test_a_nan_objective_settles_nothing():
    # f is NaN past x1 = 4.5, on the shell: F raises there, as the frozen probe's F does.
    p = get_problem("toy-eq-1")
    objective = p.objective
    nan_past = dataclasses.replace(p, objective=lambda x: math.nan if x[0] > 4.5 else objective(x))
    for kind in ("linear", "al-hpr", "c1-socp"):
        pen = make_penalty(nan_past, kind)
        for probe in (sublevel_bounded_probe, _frozen_sublevel_bounded_probe):
            with pytest.raises(NonFiniteEvaluation, match="objective is NaN"):
                probe(pen, 512.0, 2.0)
