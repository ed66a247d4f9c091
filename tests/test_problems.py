import dataclasses
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epflab.problems as problems_module
from epflab.auglag import hpr_closed_form
from epflab.cones import dist_lorentz, dist_psd_minus, proj_lorentz
from epflab.errors import DimensionMismatch, NonFiniteEvaluation, UnknownProblem
from epflab.harness import make_penalty
from epflab.problems import (
    ConstrainedProblem,
    KnownSolution,
    SdpBlock,
    SocBlock,
    _validate_certificate,
    affine_problem,
    fd_gradient,
    feasibility_gap,
    flat_multipliers,
    get_problem,
    infeasibility,
    kkt_residual,
    registry,
    split_multipliers,
)
from epflab.report import localize, serialize_report
from epflab.smoothpen import (MultiplierEstimate, c1_state, constant_normal_data,
                              estimate_multipliers_sdp, estimate_multipliers_soc)
from epflab.solvers import SolverConfig
from paper_checks import PROJECT_FEASIBLE, SAMPLE_FEASIBLE, reference_norm
from test_tracer_names import _sdp3


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
        soc += reference_norm(g - proj_lorentz(g))
    if problem.sdp_block is not None:
        soc += dist_psd_minus(problem.sdp_block.G(x))
    eq = reference_norm(problem.h(x))
    lo, hi = problem.box()
    box = reference_norm(x - np.clip(x, lo, hi))
    return soc, eq, box


def _same_float(a: float, b: float) -> bool:
    """Bit equality, sign of zero included; any NaN equals any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _probe_points(problem) -> list:
    """Uniform points in the box and around it, the box corners, -0.0, and
    each special value in turn at x* and just outside the box."""
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
    return points


@pytest.mark.parametrize("problem", registry(), ids=lambda p: p.name)
def test_feasibility_gap_matches_norm_reference(problem):
    with np.errstate(all="ignore"):
        for x in _probe_points(problem):
            ref = _reference_feasibility_gap(problem, x)
            gap = feasibility_gap(problem, x)
            assert all(map(_same_float, (gap.soc_gap, gap.eq_gap, gap.box_gap), ref)), x


def test_gap_terms_are_finite_where_their_squares_overflow():
    # Each norm was inf here, with numpy's overflow warning for the box.
    gap = feasibility_gap(get_problem("toy-socp-1"), np.array([0.0, 1e200]))
    assert gap.box_gap == 1e200
    assert gap.soc_gap == pytest.approx(1e200 / math.sqrt(2.0), rel=1e-15)
    closure = ConstrainedProblem(
        name="eq-closure", dim=1, objective=lambda x: 0.0, gradient=lambda x: np.zeros(1),
        lower=[-1.0], upper=[1.0], eq=lambda x: np.array([1e200]),
        eq_jac=lambda x: np.zeros((1, 1)), n_eq=1)
    gap = feasibility_gap(closure, np.array([0.5]))
    assert (gap.eq_gap, gap.box_gap) == (1e200, 0.0)


def test_kkt_residual_is_finite_where_the_gradient_squares_overflow():
    p = get_problem("toy-socp-1")
    x = np.array([1e200, 1e200])
    # grad f = 2 (x - (0, 2)), so the stationarity term is about 2 sqrt(2) 1e200.
    res = kkt_residual(p, x, lam=[np.array([-2.0, 2.0])])
    assert res == pytest.approx(2.0 * math.sqrt(2.0) * 1e200, rel=1e-15)


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
    # A malformed SDP multiplier would broadcast against its transpose.
    s = get_problem("toy-sdp-1")
    for lam_sdp in (np.ones((1, 2)), np.ones((1, 1)), np.ones(4)):
        with pytest.raises(DimensionMismatch):
            kkt_residual(s, np.array([0.5, 1.0]), lam_sdp=lam_sdp)
    # A part the problem does not have, or too many equality multipliers.
    for kwargs in ({"mu": [5.0, 1.0]}, {"lam_sdp": np.eye(3)}):
        with pytest.raises(DimensionMismatch):
            kkt_residual(p, np.array([1.0, 1.0]), lam=[np.array([-2.0, 2.0])], **kwargs)
    # flat_multipliers reads its parts as kkt_residual does: 5 entries do not fit a 2-entry block.
    with pytest.raises(DimensionMismatch):
        flat_multipliers(p, [np.zeros(5)])


def test_every_entry_point_rejects_a_non_symmetric_sdp_multiplier():
    # hpr_closed_form used to return 0.06929 for this Lam, and its symmetric
    # part gives 0.19429; kkt_residual used to symmetrize it.  The CLI's
    # check-kkt and al-hpr --lambda are covered in test_cli.
    s = get_problem("toy-sdp-1")
    x, lam_sdp = np.array([0.4, 0.9]), np.array([[1.0, 1.0], [0.0, 0.0]])
    for call in (lambda: hpr_closed_form(s, x, lam_sdp=lam_sdp, c=2.0),
                 lambda: kkt_residual(s, x, lam_sdp=lam_sdp),
                 lambda: make_penalty(s, "al-hpr", lam=lam_sdp.ravel()),
                 lambda: flat_multipliers(s, lam_sdp=lam_sdp),
                 lambda: split_multipliers(s, lam_sdp.ravel())):
        with pytest.raises(ValueError, match="symmetric"):
            call()
    symmetric = 0.5 * (lam_sdp + lam_sdp.T)
    assert math.isclose(hpr_closed_form(s, x, lam_sdp=symmetric, c=2.0), 0.19429, rel_tol=1e-4)


ROUND_TRIP_PROBLEMS = registry() + [_sdp3()]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ROUND_TRIP_PROBLEMS), st.data())
def test_split_multipliers_reads_back_flat_multipliers_bit_for_bit(problem, data):
    # Any float64, NaN, infinities and signed zeros included; Lam symmetric.
    entries = lambda n: np.array(data.draw(st.lists(st.floats(), min_size=n, max_size=n)), dtype=float)
    lam = [entries(block.dim) for block in problem.soc_blocks]
    lam_sdp = None
    if problem.sdp_block is not None:
        order = problem.sdp_block.order
        upper, upper_values = np.triu_indices(order), entries(order * (order + 1) // 2)
        lam_sdp = np.zeros((order, order))
        lam_sdp[upper] = lam_sdp[upper[::-1]] = upper_values
    back, back_sdp = split_multipliers(problem, flat_multipliers(problem, lam, lam_sdp))
    assert [v.tobytes() for v in back] == [v.tobytes() for v in lam]
    assert (back_sdp is None) == (lam_sdp is None)
    if lam_sdp is not None:
        assert back_sdp.shape == lam_sdp.shape and back_sdp.tobytes() == lam_sdp.tobytes()


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


# ---------------------------------------------------------------------------
# affine_problem: the registry against its hand-written builders, derived
# derivatives, and problems written as data.
# ---------------------------------------------------------------------------


def _reference_toy_lin_1() -> ConstrainedProblem:
    def g(x):
        return np.array([-x[0], 0.0])

    def jac(x):
        return np.array([[-1.0], [0.0]])

    cert = KnownSolution(
        x_star=np.array([0.0]),
        f_star=0.0,
        lambda_star=(np.array([-1.0, 0.0]),),
    )
    return ConstrainedProblem(
        name="toy-lin-1",
        dim=1,
        objective=lambda x: -x[0],
        gradient=lambda x: np.array([-1.0]),
        soc_blocks=(SocBlock(dim=2, g=g, jac=jac),),
        lower=np.array([-2.0]),
        upper=np.array([2.0]),
        certificate=cert,
        penalties=("linear", "al-hpr"),
    )


def _reference_toy_eq_1() -> ConstrainedProblem:
    cert = KnownSolution(
        x_star=np.array([1.0, 1.0]),
        f_star=2.0,
        mu_star=np.array([-2.0]),
    )
    return ConstrainedProblem(
        name="toy-eq-1",
        dim=2,
        objective=lambda x: float(x[0] ** 2 + x[1] ** 2),
        gradient=lambda x: 2.0 * np.asarray(x, dtype=float),
        eq=lambda x: np.array([x[0] + x[1] - 2.0]),
        eq_jac=lambda x: np.array([[1.0, 1.0]]),
        n_eq=1,
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
        certificate=cert,
        penalties=("linear", "qorder", "c1-socp", "al-hpr"),
    )


def _reference_toy_socp_1() -> ConstrainedProblem:
    cert = KnownSolution(
        x_star=np.array([1.0, 1.0]),
        f_star=2.0,
        lambda_star=(np.array([-2.0, 2.0]),),
    )
    return ConstrainedProblem(
        name="toy-socp-1",
        dim=2,
        objective=lambda x: float(x[0] ** 2 + (x[1] - 2.0) ** 2),
        gradient=lambda x: np.array([2.0 * x[0], 2.0 * (x[1] - 2.0)]),
        soc_blocks=(
            SocBlock(dim=2, g=lambda x: np.asarray(x, dtype=float).copy(), jac=lambda x: np.eye(2)),
        ),
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
        certificate=cert,
        penalties=("linear", "qorder", "c1-socp"),
    )


def _reference_toy_socp_2() -> ConstrainedProblem:
    cert = KnownSolution(
        x_star=np.array([1.0, 1.0]),
        f_star=2.0,
        lambda_star=(np.array([-2.0, 2.0]),),
        mu_star=np.array([0.0]),
    )
    return ConstrainedProblem(
        name="toy-socp-2",
        dim=2,
        objective=lambda x: float(x[0] ** 2 + (x[1] - 2.0) ** 2),
        gradient=lambda x: np.array([2.0 * x[0], 2.0 * (x[1] - 2.0)]),
        soc_blocks=(
            SocBlock(dim=2, g=lambda x: np.asarray(x, dtype=float).copy(), jac=lambda x: np.eye(2)),
        ),
        eq=lambda x: np.array([x[0] - x[1]]),
        eq_jac=lambda x: np.array([[1.0, -1.0]]),
        n_eq=1,
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
        certificate=cert,
        penalties=("linear", "qorder", "c1-socp"),
    )


def _reference_toy_sdp_1() -> ConstrainedProblem:
    cert = KnownSolution(
        x_star=np.array([0.5, 1.0]),
        f_star=0.25,
        lambda_sdp_star=np.diag([1.0, 0.0]),
    )

    def G(x):
        return np.diag([x[0] - 0.5, -x[1]])

    def dG(x):
        return [np.diag([1.0, 0.0]), np.diag([0.0, -1.0])]

    return ConstrainedProblem(
        name="toy-sdp-1",
        dim=2,
        objective=lambda x: float((x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2),
        gradient=lambda x: np.array([2.0 * (x[0] - 1.0), 2.0 * (x[1] - 1.0)]),
        sdp_block=SdpBlock(order=2, G=G, dG=dG),
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
        certificate=cert,
        penalties=("linear", "qorder", "c1-sdp"),
    )


# The registry's problems as they were written before affine_problem: the
# reference its factory calls must match bit for bit.
REFERENCE = {build().name: build for build in (_reference_toy_lin_1, _reference_toy_eq_1,
                                                _reference_toy_socp_1, _reference_toy_socp_2,
                                                _reference_toy_sdp_1)}


def _values(problem, x) -> list:
    """Every value and derivative the problem states at x, as float arrays."""
    out = [problem.objective(x), problem.grad_f(x)]
    for block in problem.soc_blocks:
        out += [block.g(x), block.jacobian(x)]
    if problem.sdp_block is not None:
        out += [problem.sdp_block.G(x), problem.sdp_block.derivative(x)]
    out += [problem.h(x), problem.jac_h(x)]
    return [np.asarray(v, dtype=float) for v in out]


@pytest.mark.parametrize("problem", registry(), ids=lambda p: p.name)
def test_registry_matches_hand_written_reference_bit_for_bit(problem):
    reference = REFERENCE[problem.name]()
    assert list(REFERENCE) == [p.name for p in registry()]
    assert (problem.dim, problem.n_eq, problem.penalties) == (reference.dim, reference.n_eq,
                                                              reference.penalties)
    assert [b.dim for b in problem.soc_blocks] == [b.dim for b in reference.soc_blocks]
    assert all(map(np.array_equal, problem.box(), reference.box()))
    with np.errstate(all="ignore"):
        for x in _probe_points(problem):
            got, want = _values(problem, x), _values(reference, x)
            assert [v.shape for v in got] == [v.shape for v in want], x
            for i, (a, b) in enumerate(zip(got, want)):
                assert all(map(_same_float, a.ravel().tolist(), b.ravel().tolist())), (x, i)


@pytest.mark.parametrize("name,kind", [("toy-lin-1", "linear"), ("toy-eq-1", "al-hpr"),
                                       ("toy-socp-2", "c1-socp"), ("toy-sdp-1", "c1-sdp")])
def test_localize_report_matches_hand_written_reference(name, kind):
    cfg = SolverConfig(n_starts=2, seed=3)
    reports = [serialize_report(localize(p, kind, cfg=cfg, c_max=64.0, c_steps=4))
               for p in (get_problem(name), REFERENCE[name]())]
    assert reports[0] == reports[1]


def test_affine_problem_stores_constant_derivatives_read_only():
    for p in registry():
        x = p.certificate.x_star
        parts = [p.jac_h(x)] if p.n_eq else []
        parts += [b.jacobian(x) for b in p.soc_blocks]
        if p.sdp_block is not None:
            parts.append(p.sdp_block.derivative(x))
            assert p.sdp_block.derivative(x).shape == (p.dim, p.sdp_block.order, p.sdp_block.order)
        assert parts and not any(m.flags.writeable for m in parts), p.name


def _symmetric(rng, order):
    m = rng.normal(size=(order, order)) * (rng.uniform(size=(order, order)) < 0.7)
    return m + m.T


# Random affine problem data: dim, SOC blocks, SDP order, equalities, seed.
AFFINE_DATA = dict(dim=st.integers(1, 4), n_soc=st.integers(0, 2), order=st.integers(2, 3),
                   n_eq=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))


def _affine_data(rng, dim, n_soc, order, n_eq):
    """affine_problem keywords for a random problem on [-1, 1]^dim."""

    def sparse(*shape):
        # Zero entries exercise the skipped terms of every affine map.
        return rng.normal(size=shape) * (rng.uniform(size=shape) < 0.7)

    def maybe(vector):
        return vector if rng.uniform() < 0.7 else None

    weight = float(rng.choice([0.0, rng.uniform(-2.0, 2.0)]))
    center, linear = maybe(sparse(dim)), maybe(sparse(dim))
    soc = []
    for m in rng.integers(2, 4, size=n_soc):
        # Some blocks only pick coordinates: each entry is -0.0 + 1.0 * x_k, which is x_k.
        A = sparse(m, dim) if rng.uniform() < 0.7 else np.eye(dim)[rng.integers(0, dim, size=m)]
        soc.append((A, maybe(sparse(m))))
    G0, Gk = maybe(_symmetric(rng, order)), [_symmetric(rng, order) for _ in range(dim)]
    eq = (sparse(n_eq, dim), maybe(sparse(n_eq))) if n_eq else None
    return dict(lower=-np.ones(dim), upper=np.ones(dim), certificate=None, penalties=(),
                weight=weight, center=center, linear=linear, soc=soc, sdp=(G0, Gk), eq=eq)


@settings(max_examples=60, deadline=None)
@given(**AFFINE_DATA)
def test_affine_problem_derivatives_match_finite_differences(dim, n_soc, order, n_eq, seed):
    rng = np.random.default_rng(seed)
    data = _affine_data(rng, dim, n_soc, order, n_eq)
    weight, center, linear, soc, (G0, Gk), eq = (
        data[k] for k in ("weight", "center", "linear", "soc", "sdp", "eq"))
    p = affine_problem("random", **data)
    x = rng.uniform(-1.0, 1.0, size=dim)
    a = np.zeros(dim) if center is None else center
    q = np.zeros(dim) if linear is None else linear
    # Each value is the formula it is built from ...
    assert math.isclose(p.f(x), weight * float((x - a) @ (x - a)) + float(q @ x), abs_tol=1e-12)
    for block, (A, b) in zip(p.soc_blocks, soc):
        assert np.allclose(block.g(x), A @ x + (0.0 if b is None else b), atol=1e-12)
    G_ref = (0.0 if G0 is None else G0) + np.tensordot(x, np.asarray(Gk), axes=1)
    assert np.allclose(p.sdp_block.G(x), G_ref, atol=1e-12)
    if eq is not None:
        assert np.allclose(p.h(x), eq[0] @ x - (0.0 if eq[1] is None else eq[1]), atol=1e-12)
    # ... and each derivative matches central differences.
    for func, analytic in _derivative_pairs(p):
        num, ana = fd_gradient(func, x), analytic(x)
        assert num.shape == ana.shape
        assert np.linalg.norm(num - ana) <= 1e-6 * (1.0 + np.linalg.norm(ana))


def _as_callables(p):
    """The problem with each constant constraint derivative wrapped in a callable."""
    blocks = tuple(dataclasses.replace(b, jac=lambda x, A=b.jac: A) for b in p.soc_blocks)
    sdp = p.sdp_block and dataclasses.replace(p.sdp_block, dG=lambda x, dG=p.sdp_block.dG: dG)
    eq_jac = p.eq_jac if p.eq_jac is None else (lambda x, E=p.eq_jac: E)
    return dataclasses.replace(p, soc_blocks=blocks, sdp_block=sdp, eq_jac=eq_jac)


def _with_nan_constraint(p):
    """The problem with its first constraint value NaN everywhere, or None
    when it has no constraint."""
    if p.sdp_block is not None:
        order = p.sdp_block.order
        nan = dataclasses.replace(p.sdp_block, G=lambda x: np.full((order, order), np.nan))
        return dataclasses.replace(p, sdp_block=nan)
    if p.soc_blocks:
        first = p.soc_blocks[0]
        nan = dataclasses.replace(first, g=lambda x, k=first.dim: np.full(k, np.nan))
        return dataclasses.replace(p, soc_blocks=(nan,) + p.soc_blocks[1:])
    if p.n_eq:
        return dataclasses.replace(p, eq=lambda x, k=p.n_eq: np.full(k, np.nan))
    return None


def _hex_outcome(func, *args):
    """float.hex of every float func returns, or the type and message of what it raised."""
    try:
        out = func(*args)
    except Exception as exc:  # compared, not swallowed
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, MultiplierEstimate):
        parts = (*out.lambdas, out.mu, out.lam_sdp, *out.g_vals, out.block_dists, out.h_val)
        return [np.asarray(v, float).tobytes() for v in parts if v is not None], out.degenerate
    return float.hex(out)


@settings(max_examples=40, deadline=None)
@given(**AFFINE_DATA)
def test_array_and_callable_derivatives_give_the_same_bits(dim, n_soc, order, n_eq, seed):
    rng = np.random.default_rng(seed)
    data = _affine_data(rng, dim, n_soc, order, n_eq)
    direction = rng.normal(size=dim)
    neg = np.full(dim, -0.0)
    points = [np.zeros(dim), neg, np.where(np.arange(dim) % 2 == 0, -0.0, 0.5),
              *rng.uniform(-1.5, 1.5, size=(4, dim)), 100.0 * direction, -100.0 * direction]
    for kind in ("c1-socp", "c1-sdp"):
        one_cone = {"soc": ()} if kind == "c1-sdp" else {"sdp": None}
        arrays = affine_problem("random", **{**data, **one_cone})
        calls = _as_callables(arrays)
        constrained = bool(arrays.soc_blocks or arrays.sdp_block or arrays.n_eq)
        assert constant_normal_data(arrays) is not None
        assert (constant_normal_data(calls) is None) == constrained
        estimate = estimate_multipliers_sdp if kind == "c1-sdp" else estimate_multipliers_soc
        seen = set()
        with np.errstate(all="ignore"):
            for alpha in (1e-3, 1.0, 1e3):
                both = [make_penalty(p, kind, alpha=alpha) for p in (arrays, calls)]
                for x in points:
                    for c in (0.5, 4.0):
                        outcomes = [_hex_outcome(handle, x, c) for handle in both]
                        assert outcomes[0] == outcomes[1], (kind, alpha, x.tolist(), c)
                        seen.add("inf" if outcomes[0] == "inf" else outcomes[0][:2])
            for x in points:
                assert _hex_outcome(estimate, arrays, x) == _hex_outcome(estimate, calls, x)
            # x = 0 at alpha = 1e3 lies inside the barrier domain; one of
            # +-100 u lies outside it unless no constraint reads x.
            assert "0x" in seen or "-0" in seen, seen
            if any(map(np.any, (arrays.jac_h(None), *(b.jac for b in arrays.soc_blocks),
                                arrays.sdp_block and arrays.sdp_block.dG))):
                assert "inf" in seen, seen
            nan = _with_nan_constraint(arrays)
            for p in () if nan is None else (nan, _as_callables(nan)):
                with pytest.raises(NonFiniteEvaluation):
                    make_penalty(p, kind)(points[0], 1.0)


def _toy_nc_1() -> ConstrainedProblem:
    """min -x^2 s.t. x = 0 on [-2, 2] (ROADMAP item 3): a nonconvex objective."""
    return affine_problem(
        "toy-nc-1", [-2.0], [2.0], penalties=("linear", "al-hpr"), weight=-1.0, eq=([[1.0]], None),
        certificate=KnownSolution(x_star=np.array([0.0]), f_star=0.0, mu_star=np.array([0.0])))


def test_new_problems_are_a_few_lines_of_data():
    box = ([-3.0, -3.0], [3.0, 3.0])
    toy_nc_1 = _toy_nc_1()
    # min (x1 - 2)^2 + x2^2 over the unit disc, in two cone encodings (item 5).
    disc = dict(weight=1.0, center=[2.0, 0.0])
    disc_socp = affine_problem(
        "disc-socp", *box, penalties=("linear", "qorder", "c1-socp"), **disc,
        soc=[([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 0.0, 0.0])],
        certificate=KnownSolution(x_star=np.array([1.0, 0.0]), f_star=1.0,
                                  lambda_star=(np.array([-2.0, 2.0, 0.0]),)))
    disc_sdp = affine_problem(
        "disc-sdp", *box, penalties=("linear", "qorder", "c1-sdp"), **disc,
        sdp=(-np.eye(2), [np.diag([1.0, -1.0]), np.array([[0.0, -1.0], [-1.0, 0.0]])]),
        certificate=KnownSolution(x_star=np.array([1.0, 0.0]), f_star=1.0,
                                  lambda_sdp_star=np.diag([2.0, 0.0])))
    for p in (toy_nc_1, disc_socp, disc_sdp):
        _validate_certificate(p)
    # Both encodings state the same set: the disc.
    for x in np.random.default_rng(5).uniform(-1.5, 1.5, size=(200, 2)):
        inside = feasibility_gap(disc_socp, x).soc_gap == 0.0
        assert inside == (feasibility_gap(disc_sdp, x).soc_gap <= 1e-12) == (x @ x <= 1.0), x
    assert disc_sdp.sdp_block.G(np.array([0.5, 0.25])).tolist() == [[-0.5, -0.25], [-0.25, -1.5]]


def _array_affine_map(const, coefs, const_first: bool = False):
    """problems._affine_map as it was when it returned arrays: the same sums
    wrapped in np.array, and x[index] where each entry is one coordinate."""
    coefs = np.asarray(coefs, dtype=float)
    const = np.zeros(len(coefs)) if const is None else np.ravel(const)
    entries = []
    for c, row in zip(const.tolist(), coefs.tolist()):
        pairs = list(enumerate(row))
        pairs.insert(0 if const_first else len(row), (len(row), c))
        terms = tuple((k, a) for k, a in pairs if a != 0.0)
        entries.append((-0.0 if terms else 0.0, terms))
    picks = [terms[0][0] for _, terms in entries if len(terms) == 1 and terms[0][1] == 1.0]
    if len(picks) == len(entries) and max(picks, default=0) < coefs.shape[1]:
        return lambda x, index=np.array(picks): x[index]

    def value(x):
        xs = x.tolist()
        xs.append(1.0)
        out = []
        for total, terms in entries:
            for k, a in terms:
                total += a * xs[k]
            out.append(total)
        return np.array(out)

    return value


def _array_registry() -> list:
    """The registry built with array-returning maps."""
    with mock.patch.object(problems_module, "_affine_map", _array_affine_map):
        return registry(validate=False)


_PAIRS = list(zip(registry(), _array_registry()))


def _array_infeasibility(problem, x) -> float:
    """infeasibility on array constraint values, with ||h|| = sqrt(h @ h)
    rescaled where h @ h overflows, and the box term likewise."""
    soc = 0.0
    for block in problem.soc_blocks:
        soc += dist_lorentz(block.g(x))
    if problem.sdp_block is not None:
        soc += dist_psd_minus(problem.sdp_block.G(x))
    eq = 0.0
    if problem.n_eq > 0:
        eq = reference_norm(problem.h(x))
    return soc + eq + reference_norm(x - np.clip(x, *problem.box()))


# Inside the box [-3, 3]^2 (toy-lin-1's is [-2, 2]), outside it, on its
# faces, signed zeros, and non-finite coordinates.
_COORDS = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e6, 1e6),
                    st.sampled_from([0.0, -0.0, 2.0, -2.0, 3.0, -3.0, 1e200, -1e200,
                                     math.inf, -math.inf, math.nan]))


@settings(deadline=None, max_examples=300)
@given(st.lists(_COORDS, min_size=2, max_size=2))
def test_affine_values_are_float_lists_with_the_array_bits(coords):
    for problem, arrays in _PAIRS:
        x = np.array(coords[:problem.dim])
        got, want = [b.g(x) for b in problem.soc_blocks], [b.g(x) for b in arrays.soc_blocks]
        if problem.n_eq > 0:
            got.append(problem.eq(x))
            want.append(arrays.eq(x))
            h = problem.h(x)
            assert type(h) is np.ndarray and h.shape == (problem.n_eq,)
            assert h.tobytes() == want[-1].tobytes()
        for values, ref in zip(got, want):
            assert type(values) is list and all(type(v) is float for v in values), problem.name
            assert np.array(values).tobytes() == ref.tobytes(), (problem.name, coords)
        if problem.sdp_block is not None:
            G = problem.sdp_block.G(x)
            assert G.shape == (2, 2) and G.tobytes() == arrays.sdp_block.G(x).tobytes()
        want_phi = struct.pack("<d", _array_infeasibility(arrays, x))
        got_phi = struct.pack("<d", infeasibility(problem, x))
        assert got_phi == want_phi, (problem.name, coords)


# Signed zeros, the infinities, NaN, subnormals and the largest floats.
_SELECTED = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
     -2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308]))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.lists(st.integers(0, dim - 1), min_size=1, max_size=5),
    st.lists(_SELECTED, min_size=dim, max_size=dim))), st.booleans())
def test_selection_maps_give_x_by_index(data, zero_const):
    # Rows of the identity, repeated or permuted: each entry is -0.0 + 1.0 * x_k,
    # which is x_k, as the array maps' x[index] reads it.
    picks, coords = data
    coefs, x = np.eye(len(coords))[picks], np.array(coords)
    const = np.zeros(len(picks)) if zero_const else None
    got = problems_module._affine_map(const, coefs)(x)
    want = _array_affine_map(const, coefs)(x).tolist()
    assert type(got) is list and all(type(v) is float for v in got)
    assert len(got) == len(want) and all(map(_same_float, got, want)), (picks, coords)


def _toy_deg_1s() -> ConstrainedProblem:
    """min x + 2 s.t. (-x^2, 0) in Q_2 on [-2, 2] (ROADMAP items 3 and 15):
    a closure problem whose g returns an ndarray."""
    return ConstrainedProblem(
        name="toy-deg-1s", dim=1, objective=lambda x: x[0] + 2.0,
        gradient=lambda x: np.array([1.0]), lower=[-2.0], upper=[2.0],
        soc_blocks=(SocBlock(dim=2, g=lambda x: np.array([-x[0] ** 2, 0.0]),
                             jac=lambda x: np.array([[-2.0 * x[0]], [0.0]])),),
        penalties=("linear", "c1-socp"))


@pytest.mark.parametrize("x0", [-1.5, -0.5, -0.0, 0.0, 0.3, 0.9, 2.0])
def test_closure_problem_with_array_values(x0):
    p = _toy_deg_1s()
    x = np.array([x0])
    # (-x^2, 0) is in the polar cone, x^2 away from Q_2, or at the vertex.
    assert infeasibility(p, x) == x0 ** 2
    linear = make_penalty(p, "linear")
    for c in (0.5, 3.0, 40.0):
        assert linear(x, c) == pytest.approx(x0 + 2.0 + c * x0 ** 2, rel=1e-15, abs=1e-15)
    if x0 ** 4 >= 1.0 or x0 == 0.0:
        return
    # Inside the barrier domain a = 1 - x^4 > 0.  With J = (-2x, 0) the
    # estimate's quadratic (1 - 2x l0)^2 + x^4 (l0^2 + l1^2) + (1/2) x^4 (l0^2 + l1^2)
    # is least at l = (4 / (x (8 + 3x^2)), 0); p = a / (1 + |l|^2), q = 1, and
    # F = f + (c / 2p) (dist^2(g + (p/c) l, Q) - (p/c)^2 |l|^2).
    c1 = make_penalty(p, "c1-socp")
    lam = 4.0 / (x0 * (8.0 + 3.0 * x0 ** 2))
    pv = (1.0 - x0 ** 4) / (1.0 + lam ** 2)
    for c in (0.5, 3.0, 40.0):
        shifted = -x0 ** 2 + pv / c * lam
        expected = x0 + 2.0 + c / (2.0 * pv) * (min(shifted, 0.0) ** 2 - (pv / c) ** 2 * lam ** 2)
        assert math.isfinite(c1(x, c))
        assert c1(x, c) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _closure(g, eq=None):
    """min x + 2 on [-2, 2] with the cone constraint g(x) in Q_2 and, if
    given, one equality eq(x) = 0: closures that need not return floats."""
    return ConstrainedProblem(
        name="closure", dim=1, objective=lambda x: x[0] + 2.0,
        gradient=lambda x: np.array([1.0]), lower=[-2.0], upper=[2.0],
        soc_blocks=(SocBlock(dim=2, g=g, jac=np.array([[0.0], [1.0]])),),
        eq=eq, eq_jac=None if eq is None else np.array([[1.0]]), n_eq=0 if eq is None else 1,
        penalties=("c1-socp",))


@pytest.mark.parametrize("head", [3.0, 1e200])
def test_c1_state_reads_array_int_and_float_values_alike(head):
    # An ndarray g is read as floats, as a float list is: the same state
    # bytes, and where a product in the normal matrix overflows (1e200^2)
    # the same error, with no numpy scalar warning on the way.
    forms = [lambda x: [head, float(x[0])], lambda x: np.array([head, x[0]])]
    if head == 3.0:
        forms.append(lambda x: [3, 1])  # ints: the state at x = 1.0
    outcomes = set()
    for g in forms:
        try:
            outcomes.add(np.array(c1_state(_closure(g), np.array([1.0]), 1.0, 2.0)).tobytes())
        except ValueError as exc:
            outcomes.add(str(exc))
    assert len(outcomes) == 1, outcomes


@pytest.mark.parametrize("values", [[2**53 + 1, 3], [3, 2**53 + 1]])
def test_a_list_of_ints_is_read_as_floats_once(values):
    # 2**53 + 1 is no float.  Kept as an int, the normal matrix was formed
    # exactly, so lambda differed in its last bit from the same values as a
    # float array, and the state held ints.
    states = [c1_state(_closure(g), np.array([1.0]), 1e300, 2.0)
              for g in (lambda x: list(values), lambda x: np.array(values, dtype=float))]
    assert np.array(states[0]).tobytes() == np.array(states[1]).tobytes()
    assert all(type(v) is float for state in states for v in state)
    floats = [float(v) for v in values]
    problem = _closure(lambda x: list(values), eq=lambda x: [values[0]])
    for read in (problem.soc_blocks[0].values(np.array([1.0])), problem.eq_values(np.array([1.0]))):
        assert read == floats[:len(read)] and all(type(v) is float for v in read)
    # A list of floats, as the affine maps return, is passed on as it is.
    same = [0.5, -0.0]
    assert _closure(lambda x: same).soc_blocks[0].values(np.array([1.0])) is same


def test_affine_maps_are_read_without_conversion():
    for problem in registry(validate=False):
        for block in problem.soc_blocks:
            assert block.values is block.g
        assert problem.eq is None or problem.eq_values is problem.eq


def _nan_closure(sdp: bool) -> ConstrainedProblem:
    """A closure problem on [-1, 1]^2 whose objective is NaN for x0 > 0.5
    and raises ArithmeticError for x0 > 2, whose cone value has a NaN entry
    for x1 < -0.5 and raises ValueError for x1 > 2, and whose equality is
    NaN for x0 < -0.5 and comes as a list of ints at x0 = 0."""
    def objective(x):
        if x[0] > 2.0:
            raise ArithmeticError("objective undefined")
        return np.float64(math.nan) if x[0] > 0.5 else x[0] - x[1]

    def cone(x):
        if x[1] > 2.0:
            raise ValueError("constraint undefined")
        return np.array([math.nan if x[1] < -0.5 else 1.0, x[0]])

    def eq(x):
        return [3] if x[0] == 0.0 else np.array([math.nan if x[0] < -0.5 else x[1]])

    def G(x):
        return cone(x)[0] * np.array([[x[0], 0.5], [0.5, -1.0]])

    blocks = {"sdp_block": SdpBlock(order=2, G=G, dG=np.zeros((2, 2, 2)))} if sdp else {
        "soc_blocks": (SocBlock(dim=2, g=cone, jac=np.zeros((2, 2))),)}
    return ConstrainedProblem(
        name=f"nan-closure-{'sdp' if sdp else 'soc'}", dim=2, objective=objective,
        gradient=lambda x: np.zeros(2), lower=[-1.0, -1.0], upper=[1.0, 1.0], eq=eq,
        eq_jac=np.array([[0.0, 1.0]]), n_eq=1, **blocks)


_READER_PROBLEMS = (registry() + _array_registry() + [_toy_nc_1(), _sdp3(), _toy_deg_1s()]
                    + [f() for f in (_reference_toy_lin_1, _reference_toy_eq_1, _reference_toy_socp_1,
                                     _reference_toy_socp_2, _reference_toy_sdp_1)]
                    + [_closure(lambda x: [x[0], 3]), _closure(lambda x: np.array([1.0, x[0]]),
                                                                eq=lambda x: [x[0] - 1.0])]
                    + [_nan_closure(False), _nan_closure(True)])


def _outcome_bytes(read):
    """The bytes of every float ``read()`` returns, nested lists flattened,
    or the type and message of what it raised."""
    try:
        out = read()
    except Exception as exc:  # compared, not swallowed
        return f"{type(exc).__name__}: {exc}"
    flat = []

    def walk(v):
        if isinstance(v, (list, tuple)):
            flat.append(f"[{len(v)}")
            for item in v:
                walk(item)
        else:
            flat.append(v if v is None else struct.pack("<d", v))

    walk(out)
    return flat


def _layered_point(problem, x):
    """The ``read_point`` tuple from the layered readers, called in its order:
    the objective, ``SocBlock.values``, G, ``eq_values``, then x's floats and 1.0."""
    f = float(problem.objective(x))
    gs = [block.values(x) for block in problem.soc_blocks]
    entries = None
    if problem.sdp_block is not None:
        entries = np.asarray(problem.sdp_block.G(x), dtype=float).ravel().tolist()
    h = problem.eq_values(x)
    return f, gs, entries, h, x.tolist() + [1.0]


@pytest.mark.parametrize("problem", _READER_PROBLEMS, ids=lambda p: p.name)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_read_point_is_the_layered_readers_bit_for_bit(problem, data):
    # Inside and outside the box, its faces, signed zeros and non-finite
    # coordinates; the NaN closures also reach their NaN and raising values.
    coords = st.one_of(st.floats(-1.5, 1.5), st.floats(-4.0, 4.0), st.floats(),
                       st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 3.0, 1e200, math.nan, math.inf]))
    x = np.array(data.draw(st.lists(coords, min_size=problem.dim, max_size=problem.dim)))
    with np.errstate(all="ignore"):
        got = _outcome_bytes(lambda: problem.read_point(x))
        assert got == _outcome_bytes(lambda: _layered_point(problem, x)), x.tolist()
        if isinstance(got, str):
            return
        # problem.f is the objective's value, NaN raising as it does from the point.
        assert _outcome_bytes(lambda: problem.f(x)) == _outcome_bytes(
            lambda: problems_module.checked_objective(problem.read_point(x)[0], x))
        # The gap terms from the point are the reference gap's, and feasibility_gap's.
        ref = _reference_feasibility_gap(problem, x)
        terms = problems_module.gap_terms(problem, x, problem.read_point(x))
        assert all(map(_same_float, terms, ref)), x.tolist()
        gap = feasibility_gap(problem, x)
        assert all(map(_same_float, (gap.soc_gap, gap.eq_gap, gap.box_gap), terms))
        assert _same_float(infeasibility(problem, x), terms[0] + terms[1] + terms[2])


def test_read_point_calls_each_callable_once_in_order():
    calls = []

    def log(name, value):
        def fn(x):
            calls.append(name)
            return value
        return fn

    problem = ConstrainedProblem(
        name="logged", dim=1, objective=log("f", 1.0), gradient=lambda x: np.zeros(1),
        lower=[-1.0], upper=[1.0], eq=log("h", [0.0]), eq_jac=np.zeros((1, 1)), n_eq=1,
        soc_blocks=(SocBlock(dim=2, g=log("g0", [1.0, 0.0]), jac=np.zeros((2, 1))),
                    SocBlock(dim=2, g=log("g1", [1.0, 0.0]), jac=np.zeros((2, 1)))),
        sdp_block=SdpBlock(order=1, G=log("G", [[-1.0]]), dG=np.zeros((1, 1, 1))))
    assert problem.read_point(np.array([0.5])) == (1.0, [[1.0, 0.0], [1.0, 0.0]], [-1.0], [0.0],
                                                  [0.5, 1.0])
    assert calls == ["f", "g0", "g1", "G", "h"]
    wrong = dataclasses.replace(problem, sdp_block=SdpBlock(order=2, G=log("G", [[-1.0]]),
                                                            dG=np.zeros((1, 2, 2))))
    with pytest.raises(ValueError, match=r"shape \(1, 1\), expected \(2, 2\)"):
        wrong.read_point(np.array([0.5]))


def _numpy_affine_gradient(weight, center, linear):
    """``affine_problem``'s gradient as it was written on arrays."""
    q = np.zeros(2) if linear is None else np.array(linear, dtype=float)

    def gradient(x):
        if not weight:
            return q
        grad = (2.0 * weight) * (x if center is None else x - np.array(center, dtype=float))
        return grad if linear is None else grad + q
    return gradient


_GRAD_ENTRY = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e-300, 5e-324])


@settings(deadline=None, max_examples=500)
@given(st.sampled_from([0.0, 1.0, 0.5, 3.0]), st.none() | st.lists(_GRAD_ENTRY, min_size=2, max_size=2),
       st.none() | st.lists(_GRAD_ENTRY, min_size=2, max_size=2),
       st.lists(_GRAD_ENTRY, min_size=2, max_size=2))
def test_affine_gradient_on_floats_is_the_array_formula_bit_for_bit(weight, center, linear, x):
    # 2w (x - a) + q entry by entry, signed zeros included: x - 0.0 is x where
    # no center is given, and q is added only where it is.
    problem = affine_problem("grad", [-3.0, -3.0], [3.0, 3.0], certificate=None, penalties=(),
                             weight=weight, center=center, linear=linear)
    x = np.array(x)
    want = np.asarray(_numpy_affine_gradient(weight, center, linear)(x), dtype=float).tobytes()
    assert problem.grad_f(x).tobytes() == want
    floats = problem.gradient.on_floats(x.tolist() + [1.0])
    assert all(type(v) is float for v in floats) and np.array(floats).tobytes() == want
