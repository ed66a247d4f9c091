import math

import numpy as np
import pytest

from epflab.errors import NegativeObjective
from epflab.penalties import default_phi, linear_eval, q_order, qpen_eval
from epflab.problems import ConstrainedProblem, get_problem
from paper_checks import (
    NoFeasibleDistanceOracle,
    check_q_local_condition,
    check_strict_monotone,
    estimate_error_bound,
)


def _toy_lin():
    """toy-lin-1 with phi(x) = max(0, x) as its infeasibility measure."""
    return get_problem("toy-lin-1"), lambda x: max(0.0, float(np.asarray(x)[0]))


def test_linear_eval_examples():
    p, phi = _toy_lin()
    assert linear_eval(p, phi, np.array([0.0]), 1.0) == 0.0
    assert linear_eval(p, phi, np.array([1.0]), 3.0) == 2.0
    assert linear_eval(p, phi, np.array([-2.0]), 5.0) == 2.0


def test_linear_eval_requires_positive_c():
    for c in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            linear_eval(*_toy_lin(), np.array([0.0]), c)


def test_linear_eval_default_phi_zero_iff_feasible():
    p = get_problem("toy-eq-1")
    phi = default_phi(p)
    assert phi(np.array([1.0, 1.0])) <= 1e-12
    assert phi(np.array([0.0, 0.0])) > 0.1


def test_linear_eval_affine_increasing_in_c():
    p, phi = _toy_lin()
    x = np.array([0.7])
    v1, v2, v4 = (linear_eval(p, phi, x, c) for c in (1.0, 2.0, 4.0))
    assert v1 < v2 < v4
    assert abs((v4 - v2) - 2.0 * (v2 - v1)) <= 1e-12
    feas = np.array([-1.0])
    assert linear_eval(p, phi, feas, 1.0) == linear_eval(p, phi, feas, 100.0)


def test_q_order_monotone():
    for q in (0.5, 1.0, 2.0):
        assert check_strict_monotone(q_order(q))
    for q in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="q must be positive and finite"):
            q_order(q)


def test_q_rejects_negative_arguments():
    qf = q_order(1.0)
    with pytest.raises(ValueError):
        qf(-1.0, 0.0)


def test_q_is_infinite_where_an_argument_is():
    for q in (0.5, 1.0, 2.0):
        qf = q_order(q)
        assert qf(float("inf"), 0.0) == qf(1.0, float("inf")) == float("inf")
        assert type(qf(1.0, 2.0)) is float


def test_q_order_scales_where_the_plain_form_overflows():
    # 50.0 ** 200 overflows: a float raised OverflowError, a numpy scalar
    # gave inf with a RuntimeWarning, although Q is about 50.
    for kind in (float, np.float64):
        value = q_order(200.0)(kind(1.0), kind(50.0))
        assert type(value) is float and value == 50.0
        value = q_order(2.0)(kind(1e200), kind(1e200))
        assert type(value) is float and value == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        # (t^2 + s^2) overflows in the sum although each square is finite.
        assert q_order(2.0)(kind(1.3e154), kind(1.3e154)) == pytest.approx(
            math.sqrt(2.0) * 1.3e154, rel=1e-15)
        # +inf only where Q is above the float range.
        assert q_order(0.5)(kind(1e308), kind(1e308)) == math.inf
        assert q_order(1.0)(kind(1e308), kind(1e308)) == math.inf
    # Where nothing overflows the value keeps the plain form's bits.
    for q in (0.5, 1.0, 2.0, 200.0):
        for t, s in ((1.0, 2.0), (0.0, 3.5), (1e-3, 7.0)):
            assert q_order(q)(t, s) == (t ** q + s ** q) ** (1.0 / q)
            assert q_order(q)(np.float64(t), np.float64(s)) == (t ** q + s ** q) ** (1.0 / q)


def test_qpen_examples():
    # f(x) = x + 1 on A = [-1, 1], constraint x >= 0 via phi = max(0, -x).
    prob = ConstrainedProblem(
        name="qtoy",
        dim=1,
        objective=lambda x: float(x[0] + 1.0),
        gradient=lambda x: np.ones(1),
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )
    phi = lambda x: max(0.0, -float(np.asarray(x)[0]))
    q1 = q_order(1.0)
    assert qpen_eval(q1, prob, phi, np.array([0.0]), 2.0) == 1.0
    q2 = q_order(2.0)
    assert qpen_eval(q2, prob, phi, np.array([-1.0]), 2.0) == pytest.approx(2.0)
    # Feasible reduction: Q(f, 0) = f for the q-th order instance.
    assert qpen_eval(q1, prob, phi, np.array([0.5]), 9.0) == pytest.approx(1.5)


def test_qpen_rejects_negative_objective():
    p = get_problem("toy-lin-1")  # f = -x goes negative
    phi = default_phi(p)
    with pytest.raises(NegativeObjective):
        qpen_eval(q_order(1.0), p, phi, np.array([1.0]), 1.0)


def test_qpen_nondecreasing_in_c():
    p = get_problem("toy-eq-1")
    phi = default_phi(p)
    qf = q_order(1.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.uniform(-3, 3, size=2)
        c1 = float(rng.uniform(0.1, 5.0))
        c2 = c1 * float(rng.uniform(1.1, 3.0))
        lo_val = qpen_eval(qf, p, phi, x, c1)
        hi_val = qpen_eval(qf, p, phi, x, c2)
        assert hi_val >= lo_val - 1e-12
        if phi(x) > 1e-8:
            assert hi_val > lo_val


def test_error_bound_identity_phi():
    p = get_problem("toy-lin-1")
    phi = lambda x: max(0.0, float(np.asarray(x)[0]))
    tau, used = estimate_error_bound(p, phi, np.array([0.0]), radius=1.0, alpha=1.0, n_samples=2000)
    assert 0.999 <= tau <= 1.001
    assert used > 0


def test_error_bound_scaling():
    p = get_problem("toy-lin-1")
    phi2 = lambda x: 2.0 * max(0.0, float(np.asarray(x)[0]))
    tau, _ = estimate_error_bound(p, phi2, np.array([0.0]), radius=1.0, alpha=1.0, n_samples=2000)
    assert tau == pytest.approx(2.0, rel=0.01)


def test_error_bound_quadratic_phi_fails_linear_bound():
    p = get_problem("toy-lin-1")
    phi_sq = lambda x: max(0.0, float(np.asarray(x)[0])) ** 2
    tau, _ = estimate_error_bound(p, phi_sq, np.array([0.0]), radius=0.5, alpha=1.0, n_samples=5000)
    assert tau < 0.01


def test_error_bound_requires_oracle():
    p = get_problem("toy-lin-1")
    bare = ConstrainedProblem(name="bare", dim=1, objective=p.objective, gradient=p.gradient,
                              lower=np.array([-1.0]), upper=np.array([1.0]))
    with pytest.raises(NoFeasibleDistanceOracle):
        estimate_error_bound(bare, lambda x: 0.0, np.zeros(1), 1.0, 1.0, 10)


def test_q_local_condition():
    assert check_q_local_condition(q_order(1.0), 1.0, 1.0, 0.9)
    assert check_q_local_condition(q_order(0.5), 1.0, 1.0, 0.9)
    assert not check_q_local_condition(q_order(2.0), 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        check_q_local_condition(q_order(1.0), 1.0, 1.0, 1.5)


def test_q_order_scales_where_the_plain_sum_underflows():
    # t**q underflowed to 0 (or to a subnormal that lost bits) before the 1/q power.
    for kind in (float, np.float64):
        assert q_order(2.0)(kind(0.0), kind(1e-170)) == 1e-170
        assert q_order(2.0)(kind(1e-200), kind(0.0)) == 1e-200
        assert q_order(200.0)(kind(1e-10), kind(0.0)) == 1e-10
        assert q_order(200.0)(kind(0.023), kind(0.0)) == 0.023
        assert q_order(200.0)(kind(0.025), kind(0.0)) == 0.025
        assert q_order(1.0)(kind(5e-324), kind(5e-324)) == 1e-323
    assert q_order(200.0)(1e-10, 1e-10) == pytest.approx(2.0 ** (1 / 200) * 1e-10, rel=1e-15)
    for q in (0.5, 1.0, 2.0, 200.0):
        assert q_order(q)(0.0, 0.0) == 0.0
    # Where the plain sum is a normal float the value keeps its bits.
    for q in (2.0, 200.0):
        t = math.nextafter(2.0 ** (-1022 / q), math.inf)
        while t ** q < 2.0 ** -1022:
            t = math.nextafter(t, math.inf)
        assert q_order(q)(t, 0.0) == (t ** q) ** (1.0 / q)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.5, 200.0])
def test_q_order_strictly_monotone_across_the_underflow(q):
    # Points spaced 1e-6 apart (relative) on both sides of where t**q
    # leaves the normal range.
    edge = 2.0 ** (-1022 / q)
    ts = (edge * math.exp(k * 1e-6) for k in range(-2000, 2001))
    ts = [float(t) for t in ts]
    qf = q_order(q)
    for values in ([qf(t, 0.0) for t in ts], [qf(t, t / 3.0) for t in ts],
                   [qf(edge, t) for t in ts], [qf(t, edge) for t in ts]):
        assert all(a < b for a, b in zip(values, values[1:]))
