"""Acceptance suite: one test per criterion; `pytest -v` prints one
pass/fail line for each."""

import json
import math

import numpy as np

from epflab.auglag import hpr_closed_form
from epflab.cones import dist_psd_minus, proj_lorentz, proj_psd
from epflab.harness import (
    c_sweep,
    estimate_c_star,
    geometric_grid,
    local_exactness_probe,
    make_penalty,
    nondegeneracy_probe,
    penalty_type_probe,
)
from epflab.penalties import q_order, qpen_eval
from epflab.problems import ConstrainedProblem, get_problem, registry
from epflab.report import localize, serialize_report
from epflab.smoothpen import (
    barrier_state_soc,
    c1_penalty_sdp,
    c1_penalty_soc,
    estimate_multipliers_soc,
)
from epflab.solvers import SolverConfig, minimize
from paper_checks import (
    SAMPLE_FEASIBLE,
    al_eval_grid,
    check_q_local_condition,
    equality_parameterization,
    flat_tail_augmenting,
    half_norm_squared,
    inequality_parameterization,
    norm_augmenting,
    phi_aux,
    valley_check,
)

CFG = SolverConfig(n_starts=12, seed=0)


def test_criterion_01_cone_geometry():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        dim = int(rng.integers(2, 7))
        a = rng.normal(size=dim) * 3.0
        b = rng.normal(size=dim) * 3.0
        pa, pb = proj_lorentz(a), proj_lorentz(b)
        assert np.linalg.norm(proj_lorentz(pa) - pa) <= 1e-12
        polar = -proj_lorentz(-a)
        assert np.linalg.norm(a - pa - polar) <= 1e-10
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) * (1.0 + 1e-12)
    for order in range(1, 9):
        for _ in range(25):
            m = rng.uniform(-1, 1, size=(order, order))
            m = 0.5 * (m + m.T)
            plus = proj_psd(m)
            # Reconstruction: [A]_+ - [-A]_+ = A.
            assert np.linalg.norm(plus - proj_psd(-m) - m) <= 1e-8
            assert abs(dist_psd_minus(m) ** 2 - float(np.trace(plus @ plus))) <= 1e-8


def test_criterion_02_kkt_fixed_value():
    cases = (("toy-socp-1", c1_penalty_soc), ("toy-socp-2", c1_penalty_soc),
             ("toy-sdp-1", c1_penalty_sdp))
    for name, func in cases:
        p = get_problem(name)
        for c in (0.5, 1.0, 10.0, 100.0):
            assert abs(func(p, p.certificate.x_star, c) - p.certificate.f_star) <= 1e-8


def test_criterion_03_multiplier_recovery():
    p = get_problem("toy-eq-1")
    est = estimate_multipliers_soc(p, p.certificate.x_star)
    assert np.linalg.norm(est.mu - np.array([-2.0])) <= 1e-6
    q = get_problem("toy-socp-1")
    est_q = estimate_multipliers_soc(q, q.certificate.x_star)
    assert np.linalg.norm(est_q.lambdas[0] - np.array([-2.0, 2.0])) <= 1e-6


def test_criterion_04_proof_bounds():
    p = get_problem("toy-socp-1")
    rng = np.random.default_rng(1)
    alpha, c = 1.0, 10.0
    for _ in range(1000):
        x = SAMPLE_FEASIBLE[p.name](rng)
        val = c1_penalty_soc(p, x, c, alpha=alpha)
        assert val <= p.f(x) + 1e-10
    lo, hi = p.box()
    checked = 0
    while checked < 1000:
        x = lo + rng.uniform(size=p.dim) * (hi - lo)
        val = c1_penalty_soc(p, x, c, alpha=alpha)
        if not math.isfinite(val):
            continue
        assert val >= p.f(x) - alpha / c - 1e-10
        checked += 1
    checked = 0
    while checked < 1000:
        x = lo + rng.uniform(size=p.dim) * (hi - lo)
        c1 = float(rng.uniform(0.5, 20.0))
        c2 = c1 * float(rng.uniform(1.01, 4.0))
        v1 = c1_penalty_soc(p, x, c1, alpha=alpha)
        if not math.isfinite(v1):
            continue
        assert c1_penalty_soc(p, x, c2, alpha=alpha) >= v1 - 1e-10
        checked += 1


def test_criterion_05_exactness_thresholds():
    p = get_problem("toy-lin-1")
    res = estimate_c_star(make_penalty(p, "linear"), 0.25, 64.0, cfg=CFG, strict=True)
    assert res.c_star is not None and abs(res.c_star - 1.0) <= 0.05

    q = get_problem("toy-eq-1")
    res_star = estimate_c_star(make_penalty(q, "al-hpr"), 1.0, 64.0, cfg=CFG, strict=True)
    assert res_star.c_star == 1.0
    assert all(ok for _, ok in res_star.history)

    res_zero = estimate_c_star(make_penalty(q, "al-hpr", mu=[0.0]), 1.0, 1000.0,
                               cfg=CFG, strict=True)
    assert res_zero.c_star is None


def test_criterion_06_localization_battery():
    grid = geometric_grid(0.5, 512.0, 8)
    for p in registry():
        for kind in p.penalties:
            pen = make_penalty(p, kind)
            records = c_sweep(pen, grid, CFG)
            assert penalty_type_probe(records), (p.name, kind)
            assert nondegeneracy_probe(records), (p.name, kind)
            assert local_exactness_probe(pen, p.certificate.x_star, grid[-1], seed=0), (p.name, kind)
            res = estimate_c_star(pen, grid[0], grid[-1], cfg=CFG, strict=False)
            assert res.c_star is not None and res.c_star <= 1000.0, (p.name, kind)
            # Multistart argmin at 2 * c_star sits on the certificate.
            assert res.confirm is not None
            assert np.linalg.norm(res.confirm.best_x - p.certificate.x_star) <= 1e-4, (p.name, kind)


def test_criterion_07_representation_identity():
    p = get_problem("toy-socp-1")
    rng = np.random.default_rng(2)
    lo, hi = p.box()
    checked = 0
    while checked < 100:
        x = lo + rng.uniform(size=p.dim) * (hi - lo)
        c = float(rng.uniform(0.5, 20.0))
        full = c1_penalty_soc(p, x, c)
        if not math.isfinite(full):
            continue
        est = estimate_multipliers_soc(p, x)
        state = barrier_state_soc(1.0, 2.0, est)
        assert abs(p.f(x) + phi_aux(p, x, c) / state.p_val - full) <= 1e-9
        checked += 1
    for name in ("toy-socp-1", "toy-socp-2"):
        q = get_problem(name)
        for c in (0.5, 2.0, 16.0):
            assert abs(phi_aux(q, q.certificate.x_star, c)) <= 1e-9


def test_criterion_08_augmented_lagrangian_oracle():
    rng = np.random.default_rng(3)
    sigma = half_norm_squared

    # 1-D perturbation: equality (toy-eq-1) and inequality (toy-lin-1).
    p_eq = get_problem("toy-eq-1")
    dual_eq = equality_parameterization(p_eq)
    p_lin = get_problem("toy-lin-1")
    # The flat block g = (-u, 0) is u(x) = x <= 0; multiplier l >= 0 is the SOC (-l, 0).
    u = lambda x: np.array([-float(p_lin.soc_blocks[0].g(x)[0])])
    dual_in = inequality_parameterization(u, p_lin.f)
    grid1 = dict(lower=[-8.0], upper=[8.0], n_per_axis=81)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        lam = rng.uniform(-4, 4, size=1)
        c = float(rng.uniform(0.5, 8.0))
        gv, _ = al_eval_grid(dual_eq, sigma, x, lam, c, **grid1)
        cf = hpr_closed_form(p_eq, x, mu=lam, c=c)
        assert abs(gv - cf) <= 1e-6 * (1.0 + abs(cf))
    for _ in range(50):
        x = rng.uniform(-2, 2, size=1)
        lam = rng.uniform(0, 4, size=1)
        c = float(rng.uniform(0.5, 8.0))
        gv, _ = al_eval_grid(dual_in, sigma, x, lam, c, **grid1)
        cf = hpr_closed_form(p_lin, x, lam=[np.array([-lam[0], 0.0])], c=c)
        assert abs(gv - cf) <= 1e-6 * (1.0 + abs(cf))

    # 2-D perturbation: two equality constraints.
    p2 = ConstrainedProblem(
        name="eq2", dim=2,
        objective=lambda x: float(x @ x),
        gradient=lambda x: 2.0 * x,
        eq=lambda x: np.array([x[0] - 1.0, x[1] + 1.0]),
        eq_jac=lambda x: np.eye(2),
        n_eq=2,
        lower=np.array([-3.0, -3.0]), upper=np.array([3.0, 3.0]),
    )
    dual2 = equality_parameterization(p2)
    grid2 = dict(lower=[-6.0, -6.0], upper=[6.0, 6.0], n_per_axis=41)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        lam = rng.uniform(-3, 3, size=2)
        c = float(rng.uniform(0.5, 8.0))
        gv, _ = al_eval_grid(dual2, sigma, x, lam, c, **grid2)
        cf = hpr_closed_form(p2, x, mu=lam, c=c)
        assert abs(gv - cf) <= 1e-6 * (1.0 + abs(cf))

    assert valley_check(half_norm_squared, [0.5, 1.0], p_dim=1)
    assert valley_check(norm_augmenting, [0.5, 1.0], p_dim=1)
    assert not valley_check(flat_tail_augmenting, [0.5, 1.0], p_dim=1)


def test_criterion_09_nonlinear_penalty_conditions():
    assert check_q_local_condition(q_order(0.5), 1.0, 1.0, 0.9)
    assert check_q_local_condition(q_order(1.0), 1.0, 1.0, 0.9)
    assert not check_q_local_condition(q_order(2.0), 1.0, 1.0, 0.9)

    # 1-D toy: f = x + 1 on [-1, 1], constraint x >= 0.
    prob = ConstrainedProblem(
        name="qtoy", dim=1,
        objective=lambda x: float(x[0] + 1.0),
        gradient=lambda x: np.ones(1),
        lower=np.array([-1.0]), upper=np.array([1.0]),
    )
    phi = lambda x: max(0.0, -float(np.asarray(x)[0]))
    qf = q_order(1.0)
    grid = np.linspace(-1.0, 1.0, 100_001)
    for c in (0.5, 2.0):
        func = lambda x: qpen_eval(qf, prob, phi, x, c)
        res = minimize(func, np.array([-1.0]), np.array([1.0]), CFG)
        oracle_x = grid[int(np.argmin([func(np.array([t])) for t in grid]))]
        assert abs(res.x[0] - oracle_x) <= 1e-3


def _assert_report_deterministic(problem, kind, n_starts, c_max, c_steps):
    def run():
        return serialize_report(
            localize(get_problem(problem), kind,
                     cfg=SolverConfig(n_starts=n_starts, seed=7),
                     c_min=0.5, c_max=c_max, c_steps=c_steps)
        )

    first, second = run(), run()
    assert first == second
    doc = json.loads(first)
    assert doc["seed"] == 7


def test_criterion_10_determinism():
    _assert_report_deterministic("toy-lin-1", "linear", n_starts=8, c_max=32.0, c_steps=6)


def test_criterion_10_determinism_c1_sdp():
    # Every F evaluation goes through LAPACK: Cholesky in the multiplier
    # estimate and the symmetric eigensolver in [A]_+.
    _assert_report_deterministic("toy-sdp-1", "c1-sdp", n_starts=2, c_max=8.0, c_steps=4)
