import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from epflab import smoothpen
from epflab.cones import proj_lorentz, proj_psd
from epflab.errors import NotPositiveDefinite
from epflab.numerics import chol_solve, dot
from epflab.problems import (ConstrainedProblem, SdpBlock, SocBlock, affine_problem, checked_objective,
                             get_problem, kkt_residual, registry)
from epflab.smoothpen import (
    DEFAULT_ESTIMATOR,
    KAPPA_SDP,
    KAPPA_SOC,
    EstimatorConfig,
    barrier_state_sdp,
    barrier_state_soc,
    c1_penalty_sdp,
    c1_penalty_soc,
    estimate_multipliers_sdp,
    estimate_multipliers_soc,
)
from paper_checks import SAMPLE_FEASIBLE, OutsideDomain, phi_aux, subproblem_diagnostics


def test_estimator_config_positivity():
    for bad in (0.0, -1.0, math.nan, math.inf):
        for name in ("zeta1", "zeta2"):
            with pytest.raises(ValueError):
                EstimatorConfig(**{name: bad})


def test_multiplier_recovery_eq():
    p = get_problem("toy-eq-1")
    est, residual, min_eig = subproblem_diagnostics(p, p.certificate.x_star)
    assert np.allclose(est.mu, [-2.0], atol=1e-10)
    assert residual <= 1e-8
    assert min_eig > 0.0


def test_multiplier_recovery_socp():
    p = get_problem("toy-socp-1")
    est = estimate_multipliers_soc(p, p.certificate.x_star)
    assert not est.degenerate
    assert np.allclose(est.lambdas[0], [-2.0, 2.0], atol=1e-10)


def test_multiplier_recovery_sdp():
    p = get_problem("toy-sdp-1")
    est = estimate_multipliers_sdp(p, p.certificate.x_star)
    assert np.allclose(est.lam_sdp, np.diag([1.0, 0.0]), atol=1e-8)


def test_multiplier_estimate_unconstrained():
    bare = ConstrainedProblem(name="bare", dim=1, objective=lambda x: float(x[0] ** 2),
                              gradient=lambda x: 2.0 * x, lower=-np.ones(1), upper=np.ones(1))
    est, residual, _ = subproblem_diagnostics(bare, np.array([0.3]))
    assert est.lambdas == ()
    assert est.mu.shape == (0,)
    assert residual == 0.0


def test_degenerate_point_lstsq():
    # Toy-SOCP-2 at its optimum has a one-dimensional multiplier family,
    # so the normal matrix is singular.
    p = get_problem("toy-socp-2")
    est, residual, _ = subproblem_diagnostics(p, p.certificate.x_star)
    assert est.degenerate
    assert residual <= 1e-8
    # The min-norm representative is still a valid KKT pair.
    assert kkt_residual(p, p.certificate.x_star, lam=est.lambdas, mu=est.mu) <= 1e-6


def test_ridge_effect_of_zeta2():
    p = get_problem("toy-eq-1")
    x = np.array([1.0, 0.0])  # h = -1 infeasible, grad f = (2, 0) nonzero
    small = estimate_multipliers_soc(p, x, EstimatorConfig(zeta2=1.0))
    large = estimate_multipliers_soc(p, x, EstimatorConfig(zeta2=10.0))
    assert np.linalg.norm(large.mu) < np.linalg.norm(small.mu)


def test_estimator_consistency_kkt():
    for name in ("toy-eq-1", "toy-socp-1"):
        p = get_problem(name)
        est = estimate_multipliers_soc(p, p.certificate.x_star)
        assert kkt_residual(p, p.certificate.x_star, lam=est.lambdas, mu=est.mu) <= 1e-6


def test_barrier_state_examples():
    p = get_problem("toy-eq-1")
    est = estimate_multipliers_soc(p, p.certificate.x_star)
    state = barrier_state_soc(1.0, 2.0, estimate_multipliers_soc(p, np.array([0.0, 0.0])))
    assert state.b_val == pytest.approx(-3.0)
    assert not state.inside_domain
    q = get_problem("toy-socp-1")
    est_q = estimate_multipliers_soc(q, q.certificate.x_star)
    st = barrier_state_soc(1.0, 2.0, est_q)
    assert st.p_val == pytest.approx(1.0 / 9.0)
    assert st.inside_domain


def test_barrier_state_feasible_no_multipliers():
    bare = ConstrainedProblem(name="bare", dim=1, objective=lambda x: float(x[0] ** 2),
                              gradient=lambda x: 2.0 * x, lower=-np.ones(1), upper=np.ones(1))
    est = estimate_multipliers_soc(bare, np.array([0.1]))
    st = barrier_state_soc(1.0, 2.0, est)
    assert st.a_val == st.p_val == st.b_val == st.q_val == 1.0


def test_soc_estimator_names_itself_on_a_problem_with_an_sdp_block():
    p = get_problem("toy-sdp-1")
    with pytest.raises(ValueError) as info:
        estimate_multipliers_soc(p, p.certificate.x_star)
    assert str(info.value) == "estimate_multipliers_soc does not fit toy-sdp-1, which has an SDP block"


def test_sdp_estimator_names_itself_on_a_problem_without_an_sdp_block():
    p = get_problem("toy-socp-1")
    with pytest.raises(ValueError) as info:
        estimate_multipliers_sdp(p, p.certificate.x_star)
    assert str(info.value) == "estimate_multipliers_sdp does not fit toy-socp-1, which has no SDP block"


def test_barrier_parameter_validation():
    p = get_problem("toy-socp-1")
    est = estimate_multipliers_soc(p, p.certificate.x_star)
    with pytest.raises(ValueError):
        barrier_state_soc(-1.0, 2.0, est)
    with pytest.raises(ValueError):
        barrier_state_soc(1.0, 1.5, est)
    q = get_problem("toy-sdp-1")
    est_q = estimate_multipliers_sdp(q, q.certificate.x_star)
    with pytest.raises(ValueError):
        barrier_state_sdp(1.0, 0.5, est_q)


def test_c1_kkt_fixed_value():
    for name, func in (("toy-socp-1", c1_penalty_soc), ("toy-socp-2", c1_penalty_soc),
                       ("toy-sdp-1", c1_penalty_sdp)):
        p = get_problem(name)
        for c in (0.5, 1.0, 10.0, 100.0):
            assert abs(func(p, p.certificate.x_star, c) - p.certificate.f_star) <= 1e-8


def test_c1_feasible_upper_bound():
    p = get_problem("toy-socp-1")
    x = np.array([2.0, 0.0])
    val = c1_penalty_soc(p, x, 50.0)
    assert val <= p.f(x) + 1e-10


def test_c1_eq_feasible_value():
    p = get_problem("toy-eq-1")
    assert c1_penalty_soc(p, np.array([1.0, 1.0]), 3.0) == pytest.approx(2.0, abs=1e-8)


def test_c1_outside_domain_infinite():
    p = get_problem("toy-eq-1")
    assert c1_penalty_soc(p, np.array([3.0, 3.0]), 1.0) == math.inf
    q = get_problem("toy-sdp-1")
    assert c1_penalty_sdp(q, np.array([3.0, -3.0]), 1.0) == math.inf


def test_c1_requires_positive_c():
    p = get_problem("toy-socp-1")
    with pytest.raises(ValueError):
        c1_penalty_soc(p, p.certificate.x_star, 0.0)


def test_c1_monotone_in_c():
    p = get_problem("toy-socp-1")
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 100:
        x = rng.uniform(-1, 1, size=2)
        v1 = c1_penalty_soc(p, x, 1.0)
        if not math.isfinite(v1):
            continue
        v2 = c1_penalty_soc(p, x, 4.0)
        assert v2 >= v1 - 1e-10
        checked += 1


def test_c1_sdp_zero_multiplier_at_stationary_interior():
    # Unconstrained minimum strictly inside the matrix constraint:
    # lambda(x) = 0 and the penalty reduces to f.
    base = get_problem("toy-sdp-1")
    prob = ConstrainedProblem(
        name="sdp-interior", dim=2,
        objective=lambda x: float((x[0] + 1.0) ** 2 + (x[1] - 1.0) ** 2),
        gradient=lambda x: np.array([2.0 * (x[0] + 1.0), 2.0 * (x[1] - 1.0)]),
        sdp_block=base.sdp_block,
        lower=base.lower, upper=base.upper,
    )
    x = np.array([-1.0, 1.0])  # grad f = 0, G = diag(-1.5, -1) strictly feasible
    est = estimate_multipliers_sdp(prob, x)
    assert np.linalg.norm(est.lam_sdp) <= 1e-10
    assert abs(c1_penalty_sdp(prob, x, 10.0) - prob.f(x)) <= 1e-10


def test_phi_aux_representation():
    p = get_problem("toy-socp-1")
    from epflab.smoothpen import estimate_multipliers_soc as est_soc, barrier_state_soc as bstate
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 50:
        x = rng.uniform(-2, 2, size=2)
        full = c1_penalty_soc(p, x, 5.0)
        if not math.isfinite(full):
            continue
        est = est_soc(p, x)
        state = bstate(1.0, 2.0, est)
        val = p.f(x) + phi_aux(p, x, 5.0) / state.p_val
        assert abs(val - full) <= 1e-9
        checked += 1


def test_phi_aux_zero_at_kkt_and_nonpositive_on_feasible():
    p = get_problem("toy-socp-1")
    assert abs(phi_aux(p, p.certificate.x_star, 3.0)) <= 1e-9
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = SAMPLE_FEASIBLE[p.name](rng)
        assert phi_aux(p, x, 3.0) <= 1e-12


def test_phi_aux_outside_domain():
    p = get_problem("toy-eq-1")
    with pytest.raises(OutsideDomain):
        phi_aux(p, np.array([3.0, 3.0]), 1.0)


def test_phi_aux_matches_inner_minimization():
    # Direct sampling of y in K - g(x) must not beat the closed form.
    p = get_problem("toy-socp-1")
    x = np.array([0.4, -0.3])
    c = 2.0
    est = estimate_multipliers_soc(p, x)
    state = barrier_state_soc(1.0, 2.0, est)
    closed = phi_aux(p, x, c)
    g_val = p.soc_blocks[0].g(x)
    lam = est.lambdas[0]

    # Exact cone parameterization z = (s + |t|, t) with s >= 0 turns the
    # inner problem into a box-constrained minimization.
    def inner(v):
        z = np.array([v[0] + abs(v[1]), v[1]])
        y = z - g_val
        return -state.p_val * float(lam @ y) + 0.5 * c * float(y @ y)

    from epflab.solvers import SolverConfig, minimize

    res = minimize(inner, np.array([0.0, -6.0]), np.array([10.0, 6.0]),
                   SolverConfig(n_starts=16, seed=0))
    assert closed <= res.value + 1e-9
    assert abs(closed - res.value) <= 1e-6


def _loop_sdp_estimate(problem, x, cfg=DEFAULT_ESTIMATOR):
    """Reference SDP multiplier estimate: one basis matrix at a time, with
    dist(G, S-) taken as the Frobenius norm of [G]_+."""
    order = problem.sdp_block.order
    basis = []
    for i in range(order):
        for j in range(i, order):
            e = np.zeros((order, order))
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
    n_lam = len(basis)
    m = n_lam + problem.n_eq
    d = problem.dim
    g_mat = np.asarray(problem.sdp_block.G(x), dtype=float)
    derivs = problem.sdp_block.derivative(x)
    stack = np.zeros((d, m))
    for a, e in enumerate(basis):
        for k in range(d):
            stack[k, a] = float(np.sum(e * derivs[k]))
    if problem.n_eq > 0:
        stack[:, n_lam:] = problem.jac_h(x).T
    g_sq = g_mat @ g_mat
    curv = np.zeros((m, m))
    for a, ea in enumerate(basis):
        for b in range(a, n_lam):
            curv[a, b] = curv[b, a] = float(np.sum(ea * (g_sq @ basis[b])))
    gram = np.zeros(m)
    for a, e in enumerate(basis):
        gram[a] = float(np.sum(e * e))
    gram[n_lam:] = 1.0
    dist = float(np.linalg.norm(proj_psd(g_mat)))
    rho = float(np.linalg.norm(problem.h(x)) ** 2) + dist ** 2
    normal = stack.T @ stack + cfg.zeta1 * curv + 0.5 * cfg.zeta2 * rho * np.diag(gram)
    z = np.linalg.lstsq(normal, -(stack.T @ problem.grad_f(x)), rcond=None)[0]
    lam = np.zeros((order, order))
    for a, e in enumerate(basis):
        lam += z[a] * e
    return normal, lam, z[n_lam:], dist


def _column_stack_soc_normal(problem, x, cfg=DEFAULT_ESTIMATOR):
    """Reference SOC normal matrix as first assembled: F = [gbar, g0 I] by
    column_stack, F'F by a matrix product, the ridge as a scaled identity."""
    m = sum(b.dim for b in problem.soc_blocks) + problem.n_eq
    stack = np.zeros((problem.dim, m))
    normal = np.zeros((m, m))
    rho = 0.0
    col = 0
    for block in problem.soc_blocks:
        k = block.dim
        g_val = np.asarray(block.g(x), dtype=float)
        stack[:, col : col + k] = block.jacobian(x).T
        flat = np.column_stack((g_val[1:], g_val[0] * np.eye(k - 1)))
        normal[col : col + k, col : col + k] += cfg.zeta1 * (np.outer(g_val, g_val) + flat.T @ flat)
        rho += float(np.linalg.norm(g_val - proj_lorentz(g_val))) ** 2
        col += k
    if problem.n_eq > 0:
        stack[:, col:] = problem.jac_h(x).T
        rho += float(np.linalg.norm(problem.h(x)) ** 2)
    normal += stack.T @ stack + 0.5 * cfg.zeta2 * rho * np.eye(m)
    return normal


def _two_block_soc_problem():
    # A Q_4 and a Q_3 block, both with a non-trivial Jacobian, and one equality.
    a = np.array([[1.0, -0.5, 0.2], [0.3, 1.0, -0.4], [-0.6, 0.1, 1.0], [0.2, 0.7, -0.3]])
    b = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.4]])
    return ConstrainedProblem(
        name="soc-two-blocks", dim=3,
        objective=lambda x: float(np.sum((x - 0.4) ** 2)),
        gradient=lambda x: 2.0 * (x - 0.4),
        soc_blocks=(
            SocBlock(dim=4, g=lambda x: a @ x + np.array([1.0, 0.0, 0.2, -0.1]), jac=lambda x: a),
            SocBlock(dim=3, g=lambda x: b @ (x * x) - np.array([0.5, 0.0, 0.1]),
                     jac=lambda x: 2.0 * b * x),
        ),
        eq=lambda x: np.array([x[0] + x[1] - x[2] ** 2]),
        eq_jac=lambda x: np.array([[1.0, 1.0, -2.0 * x[2]]]),
        n_eq=1,
        lower=-2.0 * np.ones(3), upper=2.0 * np.ones(3),
    )


@pytest.mark.parametrize("problem", [get_problem("toy-eq-1"), get_problem("toy-socp-1"),
                                     get_problem("toy-socp-2"), _two_block_soc_problem()],
                         ids=["toy-eq-1", "toy-socp-1", "toy-socp-2", "two-blocks-eq"])
def test_soc_normal_matrix_matches_column_stack_reference(problem, monkeypatch):
    seen = []
    solve = smoothpen._solve_normal_equations

    def record(normal, rhs):
        seen.append(normal)
        return solve(normal, rhs)

    monkeypatch.setattr(smoothpen, "_solve_normal_equations", record)
    rng = np.random.default_rng(13)
    lo, hi = problem.box()
    for cfg in (DEFAULT_ESTIMATOR, EstimatorConfig(zeta1=0.3, zeta2=7.0)):
        for _ in range(300):
            x = rng.uniform(lo, hi)
            estimate_multipliers_soc(problem, x, cfg)
            # Bit for bit, signs of zeros included.
            new, ref = seen.pop(), _column_stack_soc_normal(problem, x, cfg)
            assert np.array_equal(new, ref) and np.array_equal(np.signbit(new), np.signbit(ref))


def _order3_sdp_problem():
    # G(x) has off-diagonal entries in every coordinate; one equality.
    a0 = np.array([[-1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, -2.0]])
    a1 = np.array([[1.0, 0.5, -0.3], [0.5, 0.0, 0.2], [-0.3, 0.2, 0.4]])
    a2 = np.array([[0.0, -0.4, 0.6], [-0.4, 1.0, 0.0], [0.6, 0.0, -0.2]])
    a3 = np.array([[0.3, 0.0, 0.1], [0.0, -0.2, 0.7], [0.1, 0.7, 0.5]])
    return ConstrainedProblem(
        name="sdp-order-3", dim=3,
        objective=lambda x: float(np.sum((x - np.array([1.0, -0.5, 0.8])) ** 2)),
        gradient=lambda x: 2.0 * (x - np.array([1.0, -0.5, 0.8])),
        sdp_block=SdpBlock(order=3, G=lambda x: a0 + x[0] * a1 + x[1] * a2 + x[2] ** 2 * a3,
                           dG=lambda x: [a1, a2, 2.0 * x[2] * a3]),
        eq=lambda x: np.array([x[0] + x[1] ** 2 + x[2] - 1.0]),
        eq_jac=lambda x: np.array([[1.0, 2.0 * x[1], 1.0]]),
        n_eq=1,
        lower=-2.0 * np.ones(3), upper=2.0 * np.ones(3),
    )


@pytest.mark.parametrize("problem", [get_problem("toy-sdp-1"), _order3_sdp_problem()],
                         ids=["toy-sdp-1", "order-3-eq"])
def test_sdp_estimate_matches_loop_reference(problem, monkeypatch):
    seen = []
    solve = smoothpen._solve_normal_equations

    def record(normal, rhs):
        seen.append(normal)
        return solve(normal, rhs)

    monkeypatch.setattr(smoothpen, "_solve_normal_equations", record)

    def close(new, ref):
        return np.linalg.norm(np.atleast_1d(new - ref)) <= 1e-12 * max(np.linalg.norm(ref), 1e-300)

    rng = np.random.default_rng(11)
    lo, hi = problem.box()
    for _ in range(200):
        x = rng.uniform(lo, hi)
        est = estimate_multipliers_sdp(problem, x)
        normal, lam, mu, dist = _loop_sdp_estimate(problem, x)
        assert close(seen.pop(), normal)
        assert close(est.lam_sdp, lam)
        assert close(est.mu, mu)
        assert abs(est.block_dists[0] - dist) <= 1e-12 * dist


@pytest.mark.parametrize("p", [get_problem("toy-sdp-1"), _order3_sdp_problem()],
                         ids=["toy-sdp-1", "order-3-eq"])
def test_c1_sdp_matches_proj_psd_formula(p):
    rng = np.random.default_rng(12)
    lo, hi = p.box()
    checked = 0
    while checked < 200:
        x = rng.uniform(lo, hi)
        c = float(rng.choice([0.5, 2.0, 30.0]))
        value = c1_penalty_sdp(p, x, c)
        if not math.isfinite(value):
            continue
        est = estimate_multipliers_sdp(p, x)
        state = barrier_state_sdp(1.0, 1.0, est)
        pv = state.p_val
        plus = proj_psd(c * p.sdp_block.G(x) + pv * est.lam_sdp)
        lam_sq = float(np.sum(est.lam_sdp ** 2))
        h_val = p.h(x)
        old = (p.f(x) + (float(np.trace(plus @ plus)) - pv * pv * lam_sq) / (2.0 * c * pv)
               + float(est.mu @ h_val) + c / (2.0 * state.q_val) * float(h_val @ h_val))
        assert abs(value - old) <= 1e-12 * max(1.0, abs(old))
        checked += 1


def _six_temporary_sdp_normal(gram_product, curv, gram, cfg, rho):
    """The SDP normal matrix as first assembled, with ``stack.T @ stack``
    passed in as ``gram_product``: six m-by-m temporaries."""
    return gram_product + cfg.zeta1 * 0.5 * (curv + curv.T) + 0.5 * cfg.zeta2 * rho * np.diag(gram)


def test_sdp_normal_in_place_matches_reference_bit_for_bit():
    rng = np.random.default_rng(21)
    for m in (1, 3, 4, 7):
        gram = np.ones(m)
        gram[: m // 2] = 2.0
        for cfg in (DEFAULT_ESTIMATOR, EstimatorConfig(zeta1=0.3, zeta2=7.0)):
            for rho in (0.0, 0.37, 12.5):
                stack = rng.normal(size=(3, m))
                curv = rng.normal(size=(m, m))
                # Signed zeros in the Gram matrix and in curv, on and off the diagonal.
                base = stack.T @ stack
                base[rng.random((m, m)) < 0.4] = -0.0
                zeros = rng.random((m, m)) < 0.4
                curv[zeros] = np.where(rng.random((m, m)) < 0.5, 0.0, -0.0)[zeros]
                for gram_product in (stack.T @ stack, base):
                    ref = _six_temporary_sdp_normal(gram_product.copy(), curv, gram, cfg, rho)
                    # J'J as _normal_data hands it on (rows of floats, -0.0 turned
                    # into 0.0), curv and the ridge weights as float lists.
                    new = smoothpen._sdp_normal((0.0 + gram_product).tolist(), curv.tolist(),
                                                gram.tolist(), cfg, rho)
                    assert np.array_equal(new, ref)
                    assert np.array_equal(np.signbit(new), np.signbit(ref))


def _numpy_soc_normal(gram, g_vals, cfg, rho):
    """The SOC normal matrix as assembled on numpy arrays before it was built
    on floats: the blocks written into zeros, then J'J plus the ridge added."""
    m = len(gram)
    normal = np.zeros((m, m))
    col = 0
    for g_val in g_vals:
        k = len(g_val)
        vals = g_val.tolist()
        curv = [[gi * gj for gj in vals] for gi in vals]
        for i in range(1, k):
            curv[0][i] += curv[0][i]
            curv[i][0] += curv[i][0]
            curv[i][i] += vals[0] * vals[0]
        curv[0][0] += float(g_val[1:] @ g_val[1:])
        normal[col : col + k, col : col + k] = [[0.0 + cfg.zeta1 * v for v in row] for row in curv]
        col += k
    gram = gram.copy()
    gram.flat[:: m + 1] += 0.5 * cfg.zeta2 * rho
    normal += gram
    return normal


# Signed zeros, and magnitudes whose square overflows or underflows.
_SOC_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e200, -1e200, 1.4e154, 1e-200, -1e-200, 1.5e-162, 5e-324]),
    st.floats(-1e3, 1e3))


@st.composite
def _soc_normal_inputs(draw):
    g_vals = [draw(arrays(float, k, elements=_SOC_ENTRIES))
              for k in draw(st.lists(st.sampled_from([2, 2, 3, 4]), min_size=0, max_size=3))]
    # Never m = 0: _multipliers makes no normal matrix then.
    m = sum(map(len, g_vals)) + draw(st.integers(0 if g_vals else 1, 2))
    stack = draw(arrays(float, (draw(st.integers(1, 3)), m), elements=_SOC_ENTRIES))
    with np.errstate(all="ignore"):
        gram = stack.T @ stack
    if draw(st.booleans()):
        # -0.0 where J'J has none, on and off the diagonal.
        gram[draw(arrays(bool, (m, m)))] = -0.0
    positive = st.floats(1e-3, 1e3)
    cfg = EstimatorConfig(zeta1=draw(st.one_of(st.just(1.0), positive)),
                          zeta2=draw(st.one_of(st.just(1.0), positive)))
    return gram, g_vals, cfg, draw(st.sampled_from([0.0, 0.37, 1e300]) | st.floats(0.0, 1e3))


@settings(deadline=None, max_examples=500)
@given(_soc_normal_inputs())
def test_soc_normal_on_floats_matches_numpy_assembly_by_bytes(inputs):
    gram, g_vals, cfg, rho = inputs
    with np.errstate(all="ignore"):
        ref = _numpy_soc_normal(gram, g_vals, cfg, rho)
        # J'J as _normal_data hands it on: rows of floats, -0.0 turned into 0.0;
        # g as _cone_terms hands it on: lists of floats.
        new = np.array(smoothpen._soc_normal((0.0 + gram).tolist(), [g.tolist() for g in g_vals],
                                             cfg, rho))
    assert new.shape == ref.shape and new.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["toy-eq-1", "toy-socp-1", "toy-socp-2"])
def test_normal_data_hands_on_gram_rows(name):
    problem = get_problem(name)
    stack, gram, weights, rows = smoothpen.constant_normal_data(problem)
    assert weights is None and gram == (0.0 + stack.T @ stack).tolist()
    assert rows == stack.T.tolist()


# The C1 state's multiplier path as it was before normal systems of order 1
# and 2 were solved on floats, kept as a frozen reference: the SOC normal
# matrix as an array, J' grad f(x) as numpy's product, the solve on arrays
# (LAPACK's posv), lambda_i as slices of the solution and the barrier's
# sum from int 0.
def _frozen_multipliers(problem, x, cfg, data, g_vals, rho):
    stack, gram, weights = data[:3]
    if not gram:
        return [], [], [], False
    if weights is None:
        normal = np.array(smoothpen._soc_normal(gram, g_vals, cfg, rho))
    else:
        basis, flat, _ = smoothpen._sym_basis(problem.sdp_block.order)
        n_lam = len(flat)
        curv = flat @ (g_vals[0] @ g_vals[0] @ basis).reshape(n_lam, -1).T
        normal = smoothpen._sdp_normal(gram, curv.tolist(), weights, cfg, rho)
    rhs = stack.T @ problem.grad_f(x)
    try:
        z, degenerate = chol_solve(normal, -rhs), False
    except NotPositiveDefinite:
        z, degenerate = np.linalg.lstsq(normal, -rhs, rcond=1e-10)[0], True
    if weights is not None:
        lam = (z[:n_lam] @ flat).reshape(basis.shape[1:])
        return [lam], [float(np.sum(lam * lam))], z[n_lam:].tolist(), degenerate
    lambdas, col = [], 0
    for g_val in g_vals:
        lambdas.append(z[col : col + len(g_val)])
        col += len(g_val)
    return lambdas, [dot(lam, lam) for lam in lambdas], z[col:].tolist(), degenerate


def _frozen_c1_state(problem, x, alpha, kappa, cfg, data):
    point = problem.read_point(x)
    g_vals, dists, h_val, h_sq, rho = smoothpen._cone_terms(problem, x, point)
    sdp = problem.sdp_block is not None
    a_val = alpha - ((dists[0] ** 2) ** kappa if sdp else sum(dist ** kappa for dist in dists))
    b_val = alpha - math.sqrt(h_sq) ** 2
    if not (a_val > 0.0 and b_val > 0.0):
        return None
    lambdas, lambda_sqs, mu, _ = _frozen_multipliers(problem, x, cfg, data, g_vals, rho)
    q_val, mu_h = b_val, 0.0
    if problem.n_eq > 0:
        q_val, mu_h = b_val / (1.0 + dot(mu, mu)), dot(mu, h_val)
    state = (checked_objective(point[0], x), a_val / (1.0 + sum(lambda_sqs)), q_val, mu_h, h_sq)
    for lam_sq, g_val, lam in zip(lambda_sqs, g_vals, lambdas):
        state += (lam_sq, *(point[2] if sdp else g_val), *lam.ravel().tolist())
    return state


_C1_PAIRS = [(p, kind) for p in registry(validate=False) for kind in p.penalties
             if kind.startswith("c1-")] + [
    # Order 2 from two equalities with a general J (rows of two entries), and
    # order 4 from two Q2 blocks, where J' grad f has four rows: there numpy's
    # product is not one fused multiply-add a row.
    (affine_problem("two-eq-2d", [-3.0, -3.0], [3.0, 3.0], certificate=None, penalties=("c1-socp",),
                    weight=1.0, center=[0.5, -1.0], eq=([[1.0, 2.0], [-0.5, 1.5]], [1.0, 0.25])),
     "c1-socp"),
    (affine_problem("two-q2", [-3.0, -3.0], [3.0, 3.0], certificate=None, penalties=("c1-socp",),
                    weight=1.0, center=[0.0, 2.0],
                    soc=[(np.eye(2), None), ([[0.3, 0.7], [-1.1, 0.9]], [0.2, -0.1])]), "c1-socp")]


@pytest.mark.parametrize("problem,kind", _C1_PAIRS, ids=lambda v: getattr(v, "name", v))
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_c1_state_keeps_the_bits_of_the_array_multiplier_path(problem, kind, data):
    # Points anywhere in the box (a fifth to a half of them inside the barrier
    # domain at alpha = 1), near x* and on round or signed-zero coordinates; a
    # small alpha leaves fewer inside, a large one more.
    star = problem.certificate.x_star.tolist() if problem.certificate else [0.5, 0.5]
    coords = []
    for k, (lo, hi) in enumerate(zip(*problem.box_floats)):
        near = st.floats(max(lo, star[k] - 0.3), min(hi, star[k] + 0.3))
        coords.append(data.draw(st.floats(lo, hi) | near | st.sampled_from([-0.0, 0.0, 1.0, star[k]]),
                                label=f"x{k}"))
    x = np.array(coords)
    alpha = data.draw(st.sampled_from([1.0, 0.05, 30.0]), label="alpha")
    kappa = KAPPA_SDP if kind == "c1-sdp" else data.draw(st.sampled_from([KAPPA_SOC, 3.5]), label="kappa")
    cfg = data.draw(st.sampled_from([DEFAULT_ESTIMATOR, EstimatorConfig(zeta1=0.3, zeta2=7.0)]))
    normal_data = smoothpen.constant_normal_data(problem)
    state = smoothpen.c1_state(problem, x, alpha, kappa, cfg, normal_data)
    reference = _frozen_c1_state(problem, x, alpha, kappa, cfg, normal_data)
    assert (state is None) == (reference is None)
    if state is not None:
        assert all(type(v) is float for v in state)
        assert np.array(state).tobytes() == np.array(reference).tobytes()


@settings(deadline=None, max_examples=500)
@given(st.lists(st.floats(0.0, 1e3) | st.sampled_from([0.0, -0.0, 1e-200, 1e200]), max_size=4),
       st.sampled_from([KAPPA_SOC, 2.5, 7.0]), st.sampled_from([1.0, 0.1, 1e3]))
def test_barrier_loop_from_zero_is_the_sum_from_int_zero(dists, kappa, alpha):
    # sum() adds floats to its start, the int 0, as 0.0 + d0 + d1 + ...; the
    # loop starts from 0.0, and alpha - 0 is alpha - 0.0 without a block.  A
    # power beyond the float range raises OverflowError in both.
    def outcome(a_val):
        try:
            return float.hex(a_val())
        except OverflowError as exc:
            return type(exc)

    assert (outcome(lambda: smoothpen._barrier(False, alpha, kappa, dists, 0.0)[0])
            == outcome(lambda: alpha - sum(dist ** kappa for dist in dists)))
