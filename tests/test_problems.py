import math

import numpy as np
import pytest

from epflab.cones import dist_psd_minus, proj_lorentz
from epflab.errors import DimensionMismatch, UnknownProblem
from epflab.problems import (
    ConstrainedProblem,
    SdpBlock,
    SocBlock,
    fd_gradient,
    feasibility_gap,
    get_problem,
    kkt_residual,
    registry,
)
from paper_checks import PROJECT_FEASIBLE, SAMPLE_FEASIBLE


def test_fd_gradient_quadratic():
    g = fd_gradient(lambda x: float(x[0] ** 2 + x[1] ** 2), np.array([1.0, 1.0]))
    assert np.allclose(g, [2.0, 2.0], atol=1e-8)


def test_fd_gradient_linear():
    g = fd_gradient(lambda x: float(x[0]), np.array([0.3, -2.0]))
    assert np.allclose(g, [1.0, 0.0], atol=1e-10)


def test_fd_gradient_socp_objective():
    p = get_problem("toy-socp-1")
    g = fd_gradient(p.objective, np.array([0.0, 2.0]))
    assert np.allclose(g, [0.0, 0.0], atol=1e-8)


def test_fd_gradient_bad_step():
    with pytest.raises(ValueError):
        fd_gradient(lambda x: float(x[0]), np.array([0.0]), step=0.0)


def test_registry_names_and_lookup():
    names = [p.name for p in registry()]
    assert names == ["toy-lin-1", "toy-eq-1", "toy-socp-1", "toy-socp-2", "toy-sdp-1"]
    assert get_problem("TOY-EQ-1").certificate.f_star == 2.0
    assert np.allclose(get_problem("toy-socp-1").certificate.lambda_star[0], [-2.0, 2.0])
    with pytest.raises(UnknownProblem):
        get_problem("nope")


def test_certificates_validate():
    for p in registry():
        cert = p.certificate
        assert feasibility_gap(p, cert.x_star).total <= 1e-9
        assert abs(p.f(cert.x_star) - cert.f_star) <= 1e-9


def test_feasibility_gap_examples():
    assert feasibility_gap(get_problem("toy-socp-1"), np.array([1.0, 1.0])).total == 0.0
    gap = feasibility_gap(get_problem("toy-eq-1"), np.array([0.0, 0.0]))
    assert abs(gap.eq_gap - 2.0) <= 1e-15
    with pytest.raises(DimensionMismatch):
        feasibility_gap(get_problem("toy-eq-1"), np.zeros(3))


def test_feasibility_gap_box_component():
    p = get_problem("toy-lin-1")
    gap = feasibility_gap(p, np.array([3.0]))
    assert gap.box_gap == pytest.approx(1.0)
    assert feasibility_gap(p, np.array([2.0])).box_gap == 0.0


def _reference_feasibility_gap(problem, x):
    """feasibility_gap as it was before its fast paths: every term a norm."""
    x = np.asarray(x, dtype=float)
    soc = 0.0
    for block in problem.soc_blocks:
        g = np.asarray(block.g(x), dtype=float)
        gap = g - proj_lorentz(g)
        soc += math.sqrt(gap @ gap)
    if problem.sdp_block is not None:
        soc += dist_psd_minus(problem.sdp_block.G(x))
    eq = float(np.linalg.norm(problem.h(x)))
    lo, hi = problem.box()
    box = float(np.linalg.norm(x - np.clip(x, lo, hi)))
    return soc, eq, box


def _same_float(a: float, b: float) -> bool:
    """Bit equality, sign of zero included; any NaN equals any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("problem", registry(), ids=lambda p: p.name)
def test_feasibility_gap_matches_norm_reference(problem):
    rng = np.random.default_rng(29)
    lo, hi = problem.box()
    wide = 2.0 * (hi - lo)
    points = [rng.uniform(lo, hi) for _ in range(1000)]
    points += [rng.uniform(lo - wide, hi + wide) for _ in range(1000)]
    points += [lo.copy(), hi.copy(), -0.0 * lo]
    special = [math.nan, math.inf, -math.inf, -0.0, 1e308]
    for value in special:
        for i in range(problem.dim):
            for base in (problem.certificate.x_star, hi + 1.0):
                x = np.array(base, dtype=float)
                x[i] = value
                points.append(x)
    with np.errstate(all="ignore"):
        for x in points:
            ref = _reference_feasibility_gap(problem, x)
            gap = feasibility_gap(problem, x)
            assert all(map(_same_float, (gap.soc_gap, gap.eq_gap, gap.box_gap), ref)), x


def test_kkt_residual_certified():
    p = get_problem("toy-socp-1")
    assert kkt_residual(p, p.certificate.x_star, lam=p.certificate.lambda_star) <= 1e-9
    q = get_problem("toy-eq-1")
    assert kkt_residual(q, q.certificate.x_star, mu=q.certificate.mu_star) <= 1e-9


def test_kkt_residual_wrong_multiplier():
    q = get_problem("toy-eq-1")
    res = kkt_residual(q, np.array([1.0, 1.0]), mu=np.array([0.0]))
    assert abs(res - 2.0 * math.sqrt(2.0)) <= 1e-12


def test_kkt_residual_sdp():
    p = get_problem("toy-sdp-1")
    assert kkt_residual(p, p.certificate.x_star, lam_sdp=p.certificate.lambda_sdp_star) <= 1e-9


def test_kkt_residual_dimension_checks():
    q = get_problem("toy-eq-1")
    with pytest.raises(DimensionMismatch):
        kkt_residual(q, np.array([1.0, 1.0]))  # missing mu
    p = get_problem("toy-socp-1")
    with pytest.raises(DimensionMismatch):
        kkt_residual(p, np.array([1.0, 1.0]), lam=[np.zeros(3)])


def _derivative_pairs(p):
    """(function, its analytic derivative) for the objective and every
    constraint, each derivative laid out as fd_gradient lays it out."""
    pairs = [(p.objective, p.grad_f)]
    pairs += [(block.g, block.jacobian) for block in p.soc_blocks]
    if p.eq is not None:
        pairs.append((p.eq, p.jac_h))
    if p.sdp_block is not None:
        block = p.sdp_block
        pairs.append((block.G, lambda x: np.stack(block.derivative(x), axis=-1)))
    return pairs


def test_fd_matches_analytic_gradients():
    rng = np.random.default_rng(0)
    for p in registry():
        lo, hi = p.box()
        for _ in range(100):
            x = lo + rng.uniform(size=p.dim) * (hi - lo)
            for func, analytic in _derivative_pairs(p):
                num = fd_gradient(func, x)
                ana = analytic(x)
                assert num.shape == ana.shape
                assert np.linalg.norm(num - ana) <= 1e-5 * (1.0 + np.linalg.norm(ana))


def test_problem_contract():
    base = dict(name="contract", dim=2, objective=lambda x: float(x @ x),
                gradient=lambda x: 2.0 * x, lower=[-1, -1], upper=[1, 1])
    eq, eq_jac = lambda x: np.array([x[0]]), lambda x: np.array([[1.0, 0.0]])
    lo, hi = ConstrainedProblem(**base, eq=eq, eq_jac=eq_jac, n_eq=1).box()
    assert lo.dtype == hi.dtype == float and np.array_equal(hi, [1.0, 1.0])
    # Derivatives and bounds are required fields.
    for missing in ("gradient", "lower", "upper"):
        with pytest.raises(TypeError):
            ConstrainedProblem(**{k: v for k, v in base.items() if k != missing})
    with pytest.raises(TypeError):
        SocBlock(dim=2, g=lambda x: x)
    with pytest.raises(TypeError):
        SdpBlock(order=2, G=lambda x: np.diag(x))
    bad = (
        dict(lower=[-1.0, -np.inf]),
        dict(upper=[1.0, np.nan]),
        dict(lower=[-1.0, -1.0, -1.0]),
        dict(upper=[[1.0], [1.0]]),
        dict(lower=[2.0, -1.0]),
        dict(eq=eq, n_eq=1),
        dict(eq_jac=eq_jac, n_eq=1),
        dict(eq=eq, eq_jac=eq_jac),
        dict(n_eq=1),
    )
    for override in bad:
        with pytest.raises(ValueError):
            ConstrainedProblem(**{**base, **override})


def test_sample_feasible_stays_feasible():
    rng = np.random.default_rng(1)
    for p in registry():
        for _ in range(50):
            x = SAMPLE_FEASIBLE[p.name](rng)
            assert feasibility_gap(p, x).total <= 1e-9


def test_project_feasible_is_feasible():
    rng = np.random.default_rng(2)
    for p in registry():
        lo, hi = p.box()
        for _ in range(50):
            x = lo + rng.uniform(size=p.dim) * (hi - lo)
            proj = PROJECT_FEASIBLE[p.name](x)
            # The oracle projects onto the constraint set M (cone and
            # equality parts); the box A is handled separately.
            gap = feasibility_gap(p, proj)
            assert gap.soc_gap + gap.eq_gap <= 1e-8
