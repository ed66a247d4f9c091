import numpy as np
import pytest

from epflab.auglag import (
    GridSpec,
    al_eval_grid,
    equality_parameterization,
    flat_tail_augmenting,
    half_norm_squared,
    hpr_closed_form,
    inequality_parameterization,
    norm_augmenting,
    scalar_inequalities,
    valley_check,
)
from epflab.errors import UnboundedBelow
from epflab.harness import strict_exactness_probe
from epflab.problems import get_problem
from epflab.solvers import SolverConfig


def test_dualizing_param_zero_is_f():
    p = get_problem("toy-eq-1")
    dual = equality_parameterization(p)
    x = p.certificate.x_star
    assert dual(x, np.zeros(1)) == pytest.approx(p.f(x), abs=1e-8)


def test_al_grid_equality_at_optimum():
    p = get_problem("toy-eq-1")
    dual = equality_parameterization(p)
    grid = GridSpec(lower=np.array([-8.0]), upper=np.array([8.0]))
    out = al_eval_grid(dual, half_norm_squared(), p.certificate.x_star, np.array([-2.0]), 4.0, grid)
    assert out.value == pytest.approx(2.0, abs=1e-6)
    assert abs(out.inner_argmin[0]) <= 1e-3


def test_al_grid_equality_off_optimum():
    # f + <lam, h> + (c/2) h^2 at x = 0: 0 + (-2)(-2) + 2*4 = 12.
    p = get_problem("toy-eq-1")
    dual = equality_parameterization(p)
    grid = GridSpec(lower=np.array([-8.0]), upper=np.array([8.0]))
    out = al_eval_grid(dual, half_norm_squared(), np.zeros(2), np.array([-2.0]), 4.0, grid)
    assert out.value == pytest.approx(12.0, abs=1e-5)


def test_al_grid_matches_hpr_inequality():
    p = get_problem("toy-lin-1")
    u, n_ineq = scalar_inequalities(p)
    dual = inequality_parameterization(u, n_ineq, p.f)
    grid = GridSpec(lower=np.array([-8.0]), upper=np.array([8.0]), n_per_axis=81)
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-2, 2, size=1)
        lam = rng.uniform(0, 4, size=1)
        c = float(rng.uniform(0.5, 8.0))
        gv = al_eval_grid(dual, half_norm_squared(), x, lam, c, grid)
        cf = hpr_closed_form(p, x, lam_ineq=lam, c=c)
        assert abs(gv.value - cf) <= 1e-6 * (1.0 + abs(cf))


def test_al_grid_unbounded_detection():
    from epflab.auglag import DualizingParam

    dual = DualizingParam(evaluator=lambda x, p: float(p[0]), p_dim=1)  # linear in p
    grid = GridSpec(lower=np.array([-4.0]), upper=np.array([4.0]))
    # sigma = 0 surrogate leaves the inner objective unbounded below.
    from epflab.auglag import AugmentingFn

    zero_sigma = AugmentingFn(lambda p: 0.0)
    with pytest.raises(UnboundedBelow):
        al_eval_grid(dual, zero_sigma, np.zeros(1), np.array([2.0]), 1.0, grid)


def test_al_grid_dimension_cap():
    from epflab.auglag import DualizingParam

    dual = DualizingParam(evaluator=lambda x, p: float(p @ p), p_dim=4)
    grid = GridSpec(lower=-np.ones(4), upper=np.ones(4))
    with pytest.raises(ValueError):
        al_eval_grid(dual, half_norm_squared(), np.zeros(1), np.zeros(4), 1.0, grid)


def test_hpr_closed_form_examples():
    p = get_problem("toy-eq-1")
    assert hpr_closed_form(p, np.array([1.0, 1.0]), mu=np.array([-2.0]), c=7.0) == pytest.approx(2.0)
    assert hpr_closed_form(p, np.zeros(2), mu=np.array([-2.0]), c=4.0) == pytest.approx(12.0)
    pl = get_problem("toy-lin-1")
    # f(1) = -1 plus (1/4)[0 + 2*1]_+^2 = 1.
    assert hpr_closed_form(pl, np.array([1.0]), lam_ineq=np.array([0.0]), c=2.0) == pytest.approx(0.0)


def test_hpr_nondecreasing_in_c_and_weak_duality():
    p = get_problem("toy-eq-1")
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-3, 3, size=2)
        lam = rng.uniform(-3, 3, size=1)
        c1 = float(rng.uniform(0.2, 4.0))
        c2 = c1 * 2.0
        assert hpr_closed_form(p, x, mu=lam, c=c2) >= hpr_closed_form(p, x, mu=lam, c=c1) - 1e-12
    for _ in range(20):
        x = p.sample_feasible(rng)
        lam = rng.uniform(-3, 3, size=1)
        assert hpr_closed_form(p, x, mu=lam, c=1.0) <= p.f(x) + 1e-9


def test_hpr_kkt_anchor():
    p = get_problem("toy-eq-1")
    for c in (0.5, 1.0, 10.0, 100.0):
        assert hpr_closed_form(p, p.certificate.x_star, mu=p.certificate.mu_star, c=c) == pytest.approx(2.0)


def test_scalar_inequalities_rejects_true_cones():
    with pytest.raises(ValueError):
        scalar_inequalities(get_problem("toy-socp-1"))
    with pytest.raises(ValueError):
        scalar_inequalities(get_problem("toy-sdp-1"))


def test_valley_check_fixtures():
    assert valley_check(half_norm_squared(), [0.5, 1.0], p_dim=2)
    assert valley_check(norm_augmenting(), [0.5, 1.0], p_dim=2)
    assert not valley_check(flat_tail_augmenting(), [0.5, 1.0], p_dim=1)
    with pytest.raises(ValueError):
        valley_check(half_norm_squared(), [1.0, 0.5])


def test_strict_exactness_probe_true_multiplier():
    p = get_problem("toy-eq-1")
    mu_star = p.certificate.mu_star
    al = lambda x, c: hpr_closed_form(p, x, mu=mu_star, c=c)
    verdict = strict_exactness_probe(p, al, [1.0, 4.0, 16.0], SolverConfig(n_starts=8, seed=0))
    assert verdict.first_passing_c is not None
    assert verdict.first_passing_c <= 16.0


def test_strict_exactness_probe_zero_multiplier():
    p = get_problem("toy-eq-1")
    al = lambda x, c: hpr_closed_form(p, x, mu=np.zeros(1), c=c)
    verdict = strict_exactness_probe(p, al, [1.0, 4.0], SolverConfig(n_starts=8, seed=0))
    # Quadratic penalty alone is never exact at finite c.
    assert all(not ok for _, ok in verdict.per_c)
    assert verdict.first_passing_c is None


def test_hpr_closed_form_rejects_matrix_block():
    # toy-sdp-1 has no SOC block; its matrix constraint must not be dropped (F = f).
    with pytest.raises(ValueError, match="no HPR view"):
        hpr_closed_form(get_problem("toy-sdp-1"), np.array([3.0, -3.0]), c=100.0)
