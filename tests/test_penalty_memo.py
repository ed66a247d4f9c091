"""A staged penalty handle is value(state(x), c) with a per-handle memo of
state(x); it must give the one-shot F bit for bit and never keep an error."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevd

from epflab import harness, smoothpen
from epflab.errors import NegativeObjective, NonFiniteEvaluation, NotPositiveDefinite
from epflab.harness import make_penalty
from epflab.numerics import PIVOT_RTOL
from epflab.penalties import default_phi, linear_eval, q_order, qpen_eval
from epflab.problems import ConstrainedProblem, SocBlock, get_problem, registry
from epflab.smoothpen import (DEFAULT_ESTIMATOR, KAPPA_SDP, KAPPA_SOC, BarrierState,
                              MultiplierEstimate, _sym_basis, c1_penalty_sdp, c1_penalty_soc)

STAGED = ("linear", "qorder", "c1-socp", "c1-sdp")


# The Cholesky solve (LAPACK's potrf, then potrs) and the two cone
# distances as they were written on numpy arrays, kept as a frozen
# reference under the multiplier estimates below.  The PSD distance leaves
# out the order cap and the NoConvergence mapping, which no point here reaches.
def _sym(a):
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def _require_finite(a, b):
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("system has non-finite entries")


def chol_solve(a, b):
    a = _sym(a)
    b = np.asarray(b, dtype=float)
    max_diag = float(a.diagonal().max())
    if max_diag <= 0.0:
        _require_finite(a, b)
        raise NotPositiveDefinite("no positive diagonal entry")
    factor, info = dpotrf(a, lower=1, clean=0)
    if info != 0:
        _require_finite(a, b)
        raise NotPositiveDefinite(f"Cholesky factorization failed (LAPACK info {info})")
    min_pivot = float(factor.diagonal().min()) ** 2
    threshold = PIVOT_RTOL * max_diag
    if min_pivot < threshold:
        _require_finite(a, b)
        raise NotPositiveDefinite(f"pivot {min_pivot:.3e} below threshold {threshold:.3e}")
    x = dpotrs(factor, b, lower=1)[0]
    if not (math.isfinite(max_diag) and all(map(math.isfinite, x.tolist()))):
        _require_finite(a, b)
    return x


def dist_lorentz(y):
    y = np.asarray(y, dtype=float)
    head, tail = y[0], y[1:]
    tail_norm = math.sqrt(tail @ tail)
    if head >= tail_norm:
        return 0.0 if head < math.inf else math.nan
    if head <= -tail_norm:
        gap = y
    else:
        coef = 0.5 * (head + tail_norm)
        gap = y - (coef / tail_norm) * y
        gap[0] = head - coef
    return math.sqrt(gap @ gap)


def dist_psd_minus(a):
    a = _sym(a)
    if not np.isfinite(a).all():
        return math.nan
    values, _, info = dsyevd(a, compute_v=1, lower=1)
    assert info == 0
    clipped = np.maximum(values, 0.0)
    return math.sqrt(clipped @ clipped)


# The multiplier estimates and barriers as they were written before the C1
# state was computed in one pass, kept as a frozen reference: the public
# estimators and barriers now share the code under test.  The SOC normal
# matrix is written into zeros and J'J added on numpy arrays.
def _solve_normal_equations(normal, rhs):
    try:
        return chol_solve(normal, -rhs), False
    except NotPositiveDefinite:
        return np.linalg.lstsq(normal, -rhs, rcond=1e-10)[0], True


def estimate_multipliers_soc(problem, x, cfg=DEFAULT_ESTIMATOR):
    x = np.asarray(x, dtype=float)
    blocks = problem.soc_blocks
    if problem.sdp_block is not None:
        raise ValueError("use estimate_multipliers_sdp for matrix-constrained problems")
    sizes = [b.dim for b in blocks]
    m = sum(sizes) + problem.n_eq
    h_val = problem.h(x)
    if m == 0:
        return MultiplierEstimate(lambdas=(), mu=np.zeros(0), h_val=h_val)
    stack = np.zeros((problem.dim, m))
    normal = np.zeros((m, m))
    rho = 0.0
    dists = []
    g_vals = []
    col = 0
    for block in blocks:
        k = block.dim
        g_val = np.asarray(block.g(x), dtype=float)
        g_vals.append(g_val)
        stack[:, col : col + k] = block.jacobian(x).T
        vals = g_val.tolist()
        curv = [[gi * gj for gj in vals] for gi in vals]
        for i in range(1, k):
            curv[0][i] += curv[0][i]
            curv[i][0] += curv[i][0]
            curv[i][i] += vals[0] * vals[0]
        curv[0][0] += float(g_val[1:] @ g_val[1:])
        normal[col : col + k, col : col + k] = [[0.0 + cfg.zeta1 * v for v in row] for row in curv]
        dists.append(dist_lorentz(g_val))
        rho += dists[-1] ** 2
        col += k
    if problem.n_eq > 0:
        stack[:, col:] = problem.jac_h(x).T
        rho += math.sqrt(h_val @ h_val) ** 2
    if not math.isfinite(rho):
        raise NonFiniteEvaluation(f"constraint values are not finite at {x}")
    gram = stack.T @ stack
    gram.flat[:: m + 1] += 0.5 * cfg.zeta2 * rho
    normal += gram
    rhs = stack.T @ problem.grad_f(x)
    z, degenerate = _solve_normal_equations(normal, rhs)
    lambdas = []
    col = 0
    for k in sizes:
        lambdas.append(z[col : col + k])
        col += k
    return MultiplierEstimate(
        lambdas=tuple(lambdas), mu=z[col:], degenerate=degenerate, block_dists=tuple(dists),
        g_vals=tuple(g_vals), h_val=h_val, lambda_norm_sq=sum(float(v @ v) for v in lambdas))


def _sdp_normal(normal, curv, gram, cfg, rho):
    sym_curv = curv + curv.T
    sym_curv *= cfg.zeta1 * 0.5
    normal += sym_curv
    ridge = 0.5 * cfg.zeta2 * rho
    diag = normal.diagonal() + ridge * gram
    normal += ridge * 0.0
    normal.flat[:: len(gram) + 1] = diag
    return normal


def estimate_multipliers_sdp(problem, x, cfg=DEFAULT_ESTIMATOR):
    x = np.asarray(x, dtype=float)
    block = problem.sdp_block
    if block is None:
        raise ValueError("problem has no SDP block")
    if problem.soc_blocks:
        raise ValueError("mixed SOC and SDP blocks are not supported")
    basis, flat, basis_sums = _sym_basis(block.order)
    n_lam = basis.shape[0]
    m = n_lam + problem.n_eq
    g_mat = np.asarray(block.G(x), dtype=float)
    h_val = problem.h(x)
    grad_f = problem.grad_f(x)
    dist = dist_psd_minus(g_mat)
    rho = math.sqrt(h_val @ h_val) ** 2 + dist ** 2
    if not math.isfinite(rho):
        raise NonFiniteEvaluation(f"constraint values are not finite at {x}")
    stack = np.zeros((problem.dim, m))
    stack[:, :n_lam] = block.derivative(x).reshape(problem.dim, -1) @ flat.T
    if problem.n_eq > 0:
        stack[:, n_lam:] = problem.jac_h(x).T
    curv = np.zeros((m, m))
    curv[:n_lam, :n_lam] = flat @ (g_mat @ g_mat @ basis).reshape(n_lam, -1).T
    gram = np.ones(m)
    gram[:n_lam] = basis_sums
    normal = _sdp_normal(stack.T @ stack, curv, gram, cfg, rho)
    rhs = stack.T @ grad_f
    z, degenerate = _solve_normal_equations(normal, rhs)
    lam_sdp = (z[:n_lam] @ flat).reshape(basis.shape[1:])
    return MultiplierEstimate(
        lambdas=(), mu=z[n_lam:], lam_sdp=lam_sdp, degenerate=degenerate, block_dists=(dist,),
        g_vals=(g_mat,), h_val=h_val, lambda_norm_sq=float(np.sum(lam_sdp * lam_sdp)))


def barrier_state_soc(alpha, kappa, est):
    if not 2.0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and >= 2 for SOC problems")
    dist_sum = sum(dist ** kappa for dist in est.block_dists)
    return _barrier_state(alpha, alpha - dist_sum, est)


def barrier_state_sdp(alpha, kappa, est):
    if not 1.0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and >= 1 for SDP problems")
    dist_sq = est.block_dists[0] ** 2
    return _barrier_state(alpha, alpha - dist_sq ** kappa, est)


def _barrier_state(alpha, a_val, est):
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    b_val = alpha - math.sqrt(est.h_val @ est.h_val) ** 2
    p_val = a_val / (1.0 + est.lambda_norm_sq)
    q_val = b_val / (1.0 + float(est.mu @ est.mu))
    return BarrierState(a_val=a_val, b_val=b_val, p_val=p_val, q_val=q_val)


# The C1 stages as they were written before the SOC and SDP states were
# folded into one c1_state and one c1_value, on the frozen estimates above.
_HEAD = 5


def _state_head(problem, x, barrier, est):
    if problem.n_eq == 0:
        return problem.f(x), barrier.p_val, barrier.q_val, 0.0, 0.0
    h_val = est.h_val
    return problem.f(x), barrier.p_val, barrier.q_val, float(est.mu @ h_val), float(h_val @ h_val)


def _value(head, cone, n_eq, c):
    f_val, _, q, mu_h, h_sq = head[:_HEAD]
    value = f_val + cone
    if n_eq > 0:
        value += mu_h + (c / (2.0 * q)) * h_sq
    return float(value)


def _reference_state_soc(problem, x, alpha=1.0, kappa=KAPPA_SOC, cfg=DEFAULT_ESTIMATOR):
    x = np.asarray(x, dtype=float)
    est = estimate_multipliers_soc(problem, x, cfg)
    barrier = barrier_state_soc(alpha, kappa, est)
    if not barrier.inside_domain:
        return None
    parts = [_state_head(problem, x, barrier, est)]
    for g_val, lam_i in zip(est.g_vals, est.lambdas):
        parts += ((float(lam_i @ lam_i),), g_val, lam_i)
    return np.concatenate(parts)


def _reference_value_soc(problem, state, c):
    if state is None:
        return math.inf
    head = state[:_HEAD].tolist()
    p = head[1]
    total = 0.0
    start = _HEAD
    for block in problem.soc_blocks:
        k = block.dim
        g_val = state[start + 1 : start + 1 + k]
        lam_i = state[start + 1 + k : start + 1 + 2 * k]
        shifted = g_val + (p / c) * lam_i
        total += (c / (2.0 * p)) * (dist_lorentz(shifted) ** 2 - (p / c) ** 2 * float(state[start]))
        start += 1 + 2 * k
    return _value(head, total, problem.n_eq, c)


def _reference_state_sdp(problem, x, alpha=1.0, kappa=KAPPA_SDP, cfg=DEFAULT_ESTIMATOR):
    x = np.asarray(x, dtype=float)
    est = estimate_multipliers_sdp(problem, x, cfg)
    barrier = barrier_state_sdp(alpha, kappa, est)
    if not barrier.inside_domain:
        return None
    head = _state_head(problem, x, barrier, est) + (est.lambda_norm_sq,)
    return np.concatenate((head, est.g_vals[0].ravel(), est.lam_sdp.ravel()))


def _reference_value_sdp(problem, state, c):
    if state is None:
        return math.inf
    head = state[: _HEAD + 1].tolist()
    p, lam_sq = head[1], head[_HEAD]
    order = problem.sdp_block.order
    start = _HEAD + 1
    g_mat = state[start : start + order * order].reshape(order, order)
    lam = state[start + order * order :].reshape(order, order)
    shifted_sq = dist_psd_minus(c * g_mat + p * lam) ** 2
    return _value(head, (shifted_sq - p * p * lam_sq) / (2.0 * c * p), problem.n_eq, c)


def _one_shot(problem, kind):
    """The one-shot F of a kind at the defaults of its builder; for the c1
    kinds, the frozen reference stages."""
    phi = default_phi(problem)
    if kind == "linear":
        return lambda x, c: linear_eval(problem, phi, x, c)
    if kind == "qorder":
        return lambda x, c: qpen_eval(q_order(1.0), problem, phi, x, c)
    if kind == "c1-socp":
        return lambda x, c: _reference_value_soc(problem, _reference_state_soc(problem, x), c)
    return lambda x, c: _reference_value_sdp(problem, _reference_state_sdp(problem, x), c)


def _fits(problem, kind):
    """Whether make_penalty builds ``kind`` on ``problem``: a c1 kind needs
    its own cone."""
    return not kind.startswith("c1") or (problem.sdp_block is not None) == (kind == "c1-sdp")


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
    reference = _one_shot(problem, kind)
    if not _fits(problem, kind):
        # Both reject a c1 kind of the other cone: the reference at its
        # first F, make_penalty when it builds the handle.
        with pytest.raises(ValueError):
            reference(problem.certificate.x_star, 1.0)
        with pytest.raises(ValueError, match="does not fit"):
            make_penalty(problem, kind)
        return
    handle = make_penalty(problem, kind)
    one_shot = {"c1-socp": c1_penalty_soc, "c1-sdp": c1_penalty_sdp}.get(kind)
    seen = set()
    with np.errstate(all="ignore"):
        for x, c in _sequences(_points(problem)):
            expected = _outcome(reference, x, c)
            seen.add(expected)
            assert _outcome(handle, x, c) == expected, (x.tolist(), c)
            if one_shot is not None:
                assert _outcome(lambda z, t: one_shot(problem, z, t), x, c) == expected
    if kind in problem.penalties and kind.startswith("c1"):
        assert "inf" in seen, "no point outside the barrier domain"


@pytest.mark.parametrize("kind", ("c1-socp", "c1-sdp"))
def test_c1_kind_on_the_other_cone_raises_before_any_evaluation(kind, monkeypatch):
    def evaluated(*args, **kwargs):
        pytest.fail("F evaluated something for a penalty of the other cone")

    monkeypatch.setattr(harness, "c1_state", evaluated)
    monkeypatch.setattr(smoothpen, "c1_state", evaluated)
    one_shot = c1_penalty_sdp if kind == "c1-sdp" else c1_penalty_soc
    mismatched = [p for p in registry() if not _fits(p, kind)]
    assert mismatched
    for problem in mismatched:
        with pytest.raises(ValueError, match=f"{kind} does not fit {problem.name}"):
            make_penalty(problem, kind)
        with pytest.raises(ValueError, match=f"{kind} does not fit {problem.name}"):
            one_shot(problem, problem.certificate.x_star, 1.0)


def test_mixed_cones_raise_before_any_evaluation(monkeypatch):
    def evaluated(*args, **kwargs):
        pytest.fail("F evaluated something on a problem with both cones")

    monkeypatch.setattr(harness, "c1_state", evaluated)
    monkeypatch.setattr(smoothpen, "c1_state", evaluated)
    sdp, socp = get_problem("toy-sdp-1"), get_problem("toy-socp-1")
    mixed = dataclasses.replace(sdp, soc_blocks=socp.soc_blocks)
    with pytest.raises(ValueError, match="mixed SOC and SDP blocks are not supported"):
        make_penalty(mixed, "c1-sdp")
    with pytest.raises(ValueError, match="mixed SOC and SDP blocks are not supported"):
        c1_penalty_sdp(mixed, sdp.certificate.x_star, 1.0)
    with pytest.raises(ValueError, match="c1-socp does not fit"):
        make_penalty(mixed, "c1-socp")


_BAD_BARRIER = [
    *[(dict(alpha=alpha), "alpha must be positive and finite")
      for alpha in (0.0, -1.0, math.nan, math.inf)],
    *[(dict(kappa=kappa), "kappa must be finite and >= 2 for SOC problems")
      for kappa in (1.5, math.nan, math.inf)],
    *[(dict(kappa=kappa), "kappa must be finite and >= 1 for SDP problems")
      for kappa in (0.5, math.nan, math.inf)],
]


@pytest.mark.parametrize("params,message", _BAD_BARRIER, ids=lambda v: str(v))
def test_bad_alpha_or_kappa_raises_before_any_evaluation(params, message, monkeypatch):
    def evaluated(*args, **kwargs):
        pytest.fail("F evaluated something for a bad alpha or kappa")

    monkeypatch.setattr(harness, "c1_state", evaluated)
    monkeypatch.setattr(smoothpen, "c1_state", evaluated)
    sdp = "SDP" in message
    problem = get_problem("toy-sdp-1" if sdp else "toy-socp-1")
    kind, one_shot = ("c1-sdp", c1_penalty_sdp) if sdp else ("c1-socp", c1_penalty_soc)
    with pytest.raises(ValueError, match=message):
        make_penalty(problem, kind, **params)
    with pytest.raises(ValueError, match=message):
        one_shot(problem, problem.certificate.x_star, 1.0, **params)


@pytest.mark.parametrize("kind", ("c1-socp", "c1-sdp"))
def test_f_outside_the_barrier_domain_makes_no_cholesky_solve(kind, monkeypatch):
    solves = []
    solve = smoothpen.chol_solve

    def counting(a, b):
        solves.append(a)
        return solve(a, b)

    monkeypatch.setattr(smoothpen, "chol_solve", counting)
    problem = get_problem("toy-sdp-1" if kind == "c1-sdp" else "toy-socp-1")
    handle = make_penalty(problem, kind)
    assert handle(np.array([-3.0, -3.0]), 2.0) == math.inf
    assert solves == []
    assert math.isfinite(handle(problem.certificate.x_star, 2.0))
    assert len(solves) == 1


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
        pytest.fail("F evaluated something at a c that is not positive and finite")

    for name in ("linear_state", "qpen_state", "c1_state"):
        monkeypatch.setattr(harness, name, evaluated)
    for c in (0.0, -1.0, -0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be positive and finite"):
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
    """Record the x of every C1 state, one multiplier estimate each."""
    seen = []
    state = harness.c1_state

    def counting(problem, x, *args, **kwargs):
        seen.append(np.asarray(x, dtype=float).tobytes())
        return state(problem, x, *args, **kwargs)

    monkeypatch.setattr(harness, "c1_state", counting)
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


_STATES = {"linear": "linear_state", "qorder": "qpen_state", "c1-socp": "c1_state",
           "c1-sdp": "c1_state"}


@pytest.mark.parametrize("kind", STAGED)
def test_every_form_of_x_gives_the_bits_of_its_float64_array(kind, monkeypatch):
    # The solver passes fresh float64 arrays, which the memo keys as they
    # are; every other form is converted first and must meet the same entry.
    problem = get_problem("toy-sdp-1" if kind == "c1-sdp" else "toy-eq-1")
    reference = _one_shot(problem, kind)
    seen = []
    state = getattr(harness, _STATES[kind])

    def counting(*args):
        seen.append(args)
        return state(*args)

    monkeypatch.setattr(harness, _STATES[kind], counting)
    handle = make_penalty(problem, kind)
    x = np.array([0.75, -0.5])  # exact in float32
    strided = np.array([[0.75, 9.0], [-0.5, 9.0]])[:, 0]
    assert not strided.flags.c_contiguous
    forms = [x.copy(), x.tolist(), x.astype(np.float32), strided, x.astype(">f8")]
    expected = _outcome(reference, x, 2.0)
    for form in forms:
        assert _outcome(handle, form, 2.0) == expected, form
    assert len(seen) == 1
    # A float32 x that float64 cannot tell from itself: F of its conversion.
    y32 = np.array([0.1, 0.7], dtype=np.float32)
    assert _outcome(handle, y32, 2.0) == _outcome(reference, y32.astype(float), 2.0)
    assert _outcome(handle, y32.astype(float), 2.0) == _outcome(reference, y32.astype(float), 2.0)
    assert len(seen) == 2
    # An x of the wrong shape is evaluated every time and never stored.
    seen.clear()
    wrong = x.reshape(1, 2)
    for _ in range(2):
        assert _outcome(handle, wrong, 2.0) == _outcome(reference, wrong, 2.0)
    assert len(seen) == 2
    handle(x, 2.0)
    assert len(seen) == 2
