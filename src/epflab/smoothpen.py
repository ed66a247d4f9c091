"""Continuously differentiable exact penalty for SOC and SDP constrained
problems: multiplier-estimate subproblems, barrier terms and the penalty
itself."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from .cones import dist_lorentz, dist_psd_minus_entries
from .errors import NonFiniteEvaluation, NotPositiveDefinite
from .numerics import _dot2, chol_solve, dot
from .problems import ConstrainedProblem, check_penalty_parameter, checked_objective, point_floats

Array = np.ndarray

# Default barrier exponents: dist^kappa must be differentiable, which needs
# kappa >= 2 for a Lorentz distance and kappa >= 1 for the squared PSD one.
KAPPA_SOC = 2.0
KAPPA_SDP = 1.0


@dataclass(frozen=True)
class EstimatorConfig:
    """Weights of the multiplier-estimate subproblem; each must be positive
    and finite, 1.0 is the working default for both."""

    zeta1: float = 1.0
    zeta2: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.zeta1 < math.inf and 0.0 < self.zeta2 < math.inf):
            raise ValueError("zeta1 and zeta2 must be positive and finite")


DEFAULT_ESTIMATOR = EstimatorConfig()


@dataclass(frozen=True)
class MultiplierEstimate:
    """Multiplier estimate at a point x.

    ``g_vals`` holds the constraint values at x, g_i(x) per SOC block as a
    list of floats or (G(x),) for the SDP block, ``h_val`` holds h(x), and
    ``block_dists`` the distance of each constraint block to its cone at x,
    dist(g_i(x), Q) or (dist(G(x), S-),), so the barrier and the penalty at
    the same x do not evaluate them again.  ``lambda_norm_sq`` is
    ||lambda||^2 over every cone block, computed once by the estimator.
    """

    lambdas: Tuple[Array, ...]
    mu: Array
    lam_sdp: Optional[Array] = None
    degenerate: bool = False
    block_dists: Tuple[float, ...] = ()
    g_vals: Tuple[Union[list, Array], ...] = ()
    h_val: Optional[Array] = None
    lambda_norm_sq: float = 0.0


@dataclass(frozen=True)
class BarrierState:
    a_val: float
    b_val: float
    p_val: float
    q_val: float

    @property
    def inside_domain(self) -> bool:
        return self.a_val > 0.0 and self.b_val > 0.0


def _solve_normal_equations(normal, rhs):
    """Minimize z'Nz - 2 rhs'z: solve N z = rhs by Cholesky, z a list for a
    list of rows N and an array for an array N.

    A singular system means the nondegeneracy surrogate failed at x; the
    minimum-norm solution is returned instead, flagged as degenerate.
    """
    try:
        return chol_solve(normal, rhs), False
    except NotPositiveDefinite:
        z = np.linalg.lstsq(normal, rhs, rcond=1e-10)[0]
        return z.tolist() if type(normal) is list else z, True


@lru_cache(maxsize=None)
def _sym_basis(order: int) -> Tuple[Array, Array, Array]:
    """Basis E_ij + E_ji (E_ii on the diagonal), i <= j in row-major order,
    of the symmetric matrices of an order, as a read-only
    (n_lam, order, order) array, its (n_lam, order**2) flattening and the
    sum of each basis matrix's entries (1 on the diagonal, else 2)."""
    rows, cols = np.triu_indices(order)
    basis = np.zeros((rows.size, order, order))
    basis[np.arange(rows.size), rows, cols] = 1.0
    basis[np.arange(rows.size), cols, rows] = 1.0
    basis.flags.writeable = False
    return basis, basis.reshape(rows.size, -1), np.where(rows == cols, 1.0, 2.0)


def _normal_data(problem: ConstrainedProblem, x=None):
    """The half of the multiplier estimate's normal equations that reads
    only the constraint derivatives at x: the stack J' (dim, m) of one
    column per multiplier entry (the SDP basis coefficients or the SOC
    blocks' entries, then mu), its Gram matrix J'J and, for an SDP block,
    the ridge weights (the basis sums, then ones) as a float list, and J' as
    rows of floats.  J'J comes as rows of floats, -0.0 turned into 0.0, for
    ``_soc_normal`` and ``_sdp_normal``.  With x None every derivative must
    be an array."""
    cols = [np.zeros((problem.dim, 0))] + [soc.jacobian(x).T for soc in problem.soc_blocks]
    weights = None
    if problem.sdp_block is not None:
        _, flat, basis_sums = _sym_basis(problem.sdp_block.order)
        cols.append(problem.sdp_block.derivative(x).reshape(problem.dim, -1) @ flat.T)
        weights = basis_sums.tolist() + [1.0] * problem.n_eq
    if problem.n_eq > 0:
        cols.append(problem.jac_h(x).T)
    stack = np.hstack(cols)
    gram = stack.T @ stack
    return stack, (0.0 + gram).tolist(), weights, stack.T.tolist()


def constant_normal_data(problem: ConstrainedProblem):
    """``_normal_data(problem)``, built once for every x, when each constraint
    derivative of the problem is an array; else None."""
    derivs = [block.jac for block in problem.soc_blocks] + [problem.eq_jac]
    if problem.sdp_block is not None:
        derivs.append(problem.sdp_block.dG)
    return None if any(map(callable, derivs)) else _normal_data(problem)


def _cone_terms(problem: ConstrainedProblem, x: tuple, point: tuple):
    """The constraint values at x, a tuple of floats, from its ``read_point``
    tuple (g_i(x) per SOC block as a list of floats, or (G(x),) as an
    array), each block's cone distance, h(x) as a list of floats, h'h and
    rho = ||h||^2 + the sum of the squared distances; NonFiniteEvaluation
    unless rho is finite."""
    _, g_vals, entries, h_val, _ = point
    h_sq = dot(h_val, h_val) if problem.n_eq > 0 else 0.0
    if entries is not None:
        order = problem.sdp_block.order
        g_vals = [np.array(entries).reshape(order, order)]
        dists = [dist_psd_minus_entries(entries, order)]
        rho = math.sqrt(h_sq) ** 2 + dists[0] ** 2
    else:
        dists, rho = [], 0.0
        for g_val in g_vals:
            dists.append(dist_lorentz(g_val))
            rho += dists[-1] ** 2
        if problem.n_eq > 0:
            rho += math.sqrt(h_sq) ** 2
    if not math.isfinite(rho):
        raise NonFiniteEvaluation(f"constraint values are not finite at {np.array(x)}")
    return g_vals, dists, h_val, h_sq, rho


def _soc_normal(gram: list, g_vals, cfg: EstimatorConfig, rho: float) -> list:
    """zeros + zeta1 (g g' + F'F, F = [gbar, g0 I], per block) + (J'J + (zeta2 / 2) rho I),
    summed in that order, as rows of floats from the rows of J'J that
    ``_normal_data`` gives (-0.0 already 0.0, which is what zeros + J'J makes
    of it) and the float lists g of ``_cone_terms``."""
    ridge = 0.5 * cfg.zeta2 * rho
    normal = [row[:] for row in gram]
    for i, row in enumerate(normal):
        row[i] += ridge
    col = 0
    for vals in g_vals:
        # g g' + F'F: 2 g0 g_j along the head row and column, g_i^2 + g0^2
        # on the tail diagonal.
        k = len(vals)
        curv = [[gi * gj for gj in vals] for gi in vals]
        for i in range(1, k):
            curv[0][i] += curv[0][i]
            curv[i][0] += curv[i][0]
            curv[i][i] += vals[0] * vals[0]
        # The numpy dot of a one-entry tail is its square.
        curv[0][0] += vals[1] * vals[1] if k == 2 else dot(vals[1:], vals[1:])
        for i, row in enumerate(curv):
            out = normal[col + i]
            for j, v in enumerate(row, col):
                out[j] = (0.0 + cfg.zeta1 * v) + out[j]
        col += k
    return normal


def _sdp_normal(gram: list, curv: list, weights: list, cfg: EstimatorConfig, rho: float) -> Array:
    """J'J + zeta1 (curv + curv') / 2 + (zeta2 / 2) rho diag(weights), summed
    in that order on floats from the rows of J'J that ``_normal_data`` gives
    (-0.0 already 0.0, which is what adding 0.0 off the diagonal, as the
    sum on arrays does, makes of it) and the rows of curv, which may be
    fewer: the sum on arrays pads them with zeros."""
    half, ridge = cfg.zeta1 * 0.5, 0.5 * cfg.zeta2 * rho
    normal = [row[:] for row in gram]
    for i, row in enumerate(curv):
        out = normal[i]
        for j, v in enumerate(row):
            out[j] += (v + curv[j][i]) * half
    for i, w in enumerate(weights):
        normal[i][i] += ridge * w
    return np.array(normal)


def _multipliers(problem: ConstrainedProblem, x: tuple, xs: list, cfg, data, g_vals, rho: float):
    """The estimate at x from one normal-equation solve: lambda_i per SOC
    block as a list of floats (or (Lambda,) for the SDP block), their
    squared norms (by a dot product, or ||Lambda||_F^2 by a sum), mu as a
    list of floats, and whether the system was singular.  ``xs`` is x's
    floats as ``read_point`` takes them, which the gradient's ``on_floats``
    reads where it has one, and ``data`` is ``_normal_data``, built here at
    x when None.  x, a tuple of floats, becomes an array only for those two
    reads of a callable derivative or gradient."""
    stack, gram, weights, rows = _normal_data(problem, np.array(x)) if data is None else data
    if not gram:
        return [], [], [], False
    gradient = problem.gradient
    grad = gradient.on_floats(xs) if hasattr(gradient, "on_floats") else problem.grad_f(x).tolist()
    if weights is not None:
        basis, flat, _ = _sym_basis(problem.sdp_block.order)
        n_lam = len(flat)
        curv = flat @ (g_vals[0] @ g_vals[0] @ basis).reshape(n_lam, -1).T
        normal = _sdp_normal(gram, curv.tolist(), weights, cfg, rho)
        z, degenerate = _solve_normal_equations(normal, -(stack.T @ np.array(grad)))
        lam = (z[:n_lam] @ flat).reshape(basis.shape[1:])
        return [lam], [float(np.sum(lam * lam))], z[n_lam:].tolist(), degenerate
    normal = _soc_normal(gram, g_vals, cfg, rho)
    z, degenerate = _solve_normal_equations(normal, _gradient_rhs(stack, rows, grad))
    lambdas, lambda_sqs, col = [], [], 0
    for g_val in g_vals:  # a loop: a comprehension costs a function call
        lam = z[col : col + len(g_val)]
        lambdas.append(lam)
        lambda_sqs.append(dot(lam, lam))
        col += len(g_val)
    return lambdas, lambda_sqs, z[col:], degenerate


def _gradient_rhs(stack: Array, rows: list, grad: list) -> list:
    """-J' grad f(x) as a list of floats from J' (``stack.T``, and its
    ``rows`` of floats) and grad f(x) as a list, with the bits of numpy's
    product: at most two rows of two entries are ``_dot2`` each, the fused
    multiply-add that OpenBLAS's ``gemv`` makes of a row at that shape (at
    four rows it takes other operations); anything else is the product."""
    if len(rows) <= 2 and len(grad) == 2:
        g0, g1 = grad
        rhs = []
        for r0, r1 in rows:
            found = _dot2(r0, r1, g0, g1)
            if found is None:
                break
            rhs.append(-found)
        else:
            return rhs
    return (-(stack.T @ np.array(grad))).tolist()


def _estimate(problem: ConstrainedProblem, x, cfg: EstimatorConfig) -> MultiplierEstimate:
    x = point_floats(problem, x)
    point = problem.read_point(x)
    g_vals, dists, h_val, _, rho = _cone_terms(problem, x, point)
    lambdas, lambda_sqs, mu, degenerate = _multipliers(problem, x, point[4], cfg, None, g_vals, rho)
    sdp = problem.sdp_block is not None
    return MultiplierEstimate(lambdas=() if sdp else tuple(map(np.array, lambdas)),
                              mu=np.array(mu, dtype=float),
                              lam_sdp=lambdas[0] if sdp else None, degenerate=degenerate,
                              block_dists=tuple(dists), g_vals=tuple(g_vals),
                              h_val=np.array(h_val, dtype=float),
                              lambda_norm_sq=sum(lambda_sqs, 0.0))


def estimate_multipliers_soc(problem: ConstrainedProblem, x,
                             cfg: EstimatorConfig = DEFAULT_ESTIMATOR) -> MultiplierEstimate:
    """Multiplier estimate (lambda(x), mu(x)) for SOC/equality problems.

    Minimizes the convex quadratic
      ||grad_x L||^2
      + zeta1 * sum_i (<lambda_i, g_i>^2 + ||(lambda_i)_0 gbar_i + (g_i)_0 lambdabar_i||^2)
      + (zeta2/2) * (||h||^2 + sum_i dist^2(g_i, Q)) * (||lambda||^2 + ||mu||^2)
    via its normal equations; a singular system gives the minimum-norm
    estimate with ``degenerate`` set.  A non-finite constraint value (g_i,
    h, or G in the SDP analogue) raises NonFiniteEvaluation, and a problem
    with an SDP block ValueError (``check_cone``).
    """
    check_cone(problem, False, "estimate_multipliers_soc")
    return _estimate(problem, x, cfg)


def estimate_multipliers_sdp(problem: ConstrainedProblem, x,
                             cfg: EstimatorConfig = DEFAULT_ESTIMATOR) -> MultiplierEstimate:
    """SDP analogue of the multiplier estimate, with lambda a symmetric
    matrix parameterized by its upper-triangular entries.  ValueError
    (``check_cone``) unless the problem has an SDP block and no SOC block."""
    check_cone(problem, True, "estimate_multipliers_sdp")
    return _estimate(problem, x, cfg)


def check_barrier(sdp: bool, alpha: float, kappa: float) -> None:
    """ValueError unless kappa is finite and at least the cone's minimum
    (dist^kappa must be differentiable) and alpha is positive and finite."""
    least = KAPPA_SDP if sdp else KAPPA_SOC
    if not least <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and >= {least:g} for {'SDP' if sdp else 'SOC'} "
                         "problems")
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")


def barrier_state_soc(alpha: float, kappa: float, est: MultiplierEstimate) -> BarrierState:
    """Barrier terms p(x), q(x) built from constraint violations and the
    multiplier estimate ``est`` at x, whose constraint values and cone
    distances it reads; kappa >= 2 keeps dist^kappa differentiable."""
    return _barrier_state(False, alpha, kappa, est)


def barrier_state_sdp(alpha: float, kappa: float, est: MultiplierEstimate) -> BarrierState:
    return _barrier_state(True, alpha, kappa, est)


def _barrier_state(sdp: bool, alpha: float, kappa: float, est: MultiplierEstimate) -> BarrierState:
    """a(x), b(x), p(x) and q(x) from the multiplier estimate at x."""
    check_barrier(sdp, alpha, kappa)
    a_val, b_val = _barrier(sdp, alpha, kappa, est.block_dists, est.h_val @ est.h_val)
    p_val = a_val / (1.0 + est.lambda_norm_sq)
    q_val = b_val / (1.0 + float(est.mu @ est.mu))
    return BarrierState(a_val=a_val, b_val=b_val, p_val=p_val, q_val=q_val)


def _barrier(sdp: bool, alpha: float, kappa: float, dists, h_sq: float) -> Tuple[float, float]:
    """a(x) and b(x) from the cone distances at x and h(x)'h(x)."""
    if sdp:
        total = (dists[0] ** 2) ** kappa
    else:
        # A loop from 0.0, as sum() adds floats to its int 0 (0.0 when empty).
        total = 0.0
        for dist in dists:
            total += dist ** kappa
    return alpha - total, alpha - math.sqrt(h_sq) ** 2


def check_cone(problem: ConstrainedProblem, sdp: bool, caller: Optional[str] = None) -> None:
    """ValueError unless ``problem`` has an SDP block exactly when ``sdp``,
    and no SOC block beside it.  The message says "CALLER does not fit",
    the C1 penalty kind of that cone unless ``caller`` is given."""
    if (problem.sdp_block is not None) != sdp:
        caller = caller or f"c1-{'sdp' if sdp else 'socp'}"
        raise ValueError(f"{caller} does not fit {problem.name}, which has "
                         f"{'no' if sdp else 'an'} SDP block")
    if sdp and problem.soc_blocks:
        raise ValueError("mixed SOC and SDP blocks are not supported")


# A c1 state starts with f(x), p(x), q(x), <mu(x), h(x)> and ||h(x)||^2.
_HEAD = 5


def c1_state(problem: ConstrainedProblem, x, alpha: float, kappa: float,
             cfg: EstimatorConfig = DEFAULT_ESTIMATOR, data=None) -> Optional[tuple]:
    """The part of the C1 penalty at x that does not read c, in one tuple of
    floats: the head (f, p, q, <mu, h>, ||h||^2), then per cone block
    ||lambda_i||^2, g_i(x) and lambda_i (Lambda and G(x) row-major), with the
    bits of the estimate and barrier of the problem's cone.  None outside the
    barrier domain, before any normal equation is formed.  x is a tuple of
    floats as ``point_floats`` returns it; alpha and kappa must pass
    ``check_barrier``; ``data`` is ``constant_normal_data`` or None."""
    point = problem.read_point(x)
    g_vals, dists, h_val, h_sq, rho = _cone_terms(problem, x, point)
    sdp = problem.sdp_block is not None
    a_val, b_val = _barrier(sdp, alpha, kappa, dists, h_sq)
    if not (a_val > 0.0 and b_val > 0.0):
        return None
    lambdas, lambda_sqs, mu, _ = _multipliers(problem, x, point[4], cfg, data, g_vals, rho)
    # Without equalities mu is empty: q = b / (1 + 0.0) = b and <mu, h> = 0.0.
    q_val, mu_h = b_val, 0.0
    if problem.n_eq > 0:
        q_val, mu_h = b_val / (1.0 + dot(mu, mu)), dot(mu, h_val)
    state = (checked_objective(point[0], x), a_val / (1.0 + sum(lambda_sqs)), q_val, mu_h, h_sq)
    for lam_sq, g_val, lam in zip(lambda_sqs, g_vals, lambdas):
        state += (lam_sq, *point[2], *lam.ravel().tolist()) if sdp else (lam_sq, *g_val, *lam)
    return state


def c1_value(problem: ConstrainedProblem, state: Optional[tuple], c: float) -> float:
    """The C1 penalty at c from its ``c1_state``; +inf for None."""
    if state is None:
        return math.inf
    f_val, p, q, mu_h, h_sq = state[:_HEAD]
    total = 0.0
    start = _HEAD
    ratio = p / c
    for block in problem.soc_blocks:
        k = block.dim
        # g_i + (p/c) lambda_i entry by entry, as numpy adds them.
        shifted = [g + ratio * lam for g, lam in zip(state[start + 1 : start + 1 + k],
                                                     state[start + 1 + k : start + 1 + 2 * k])]
        total += (c / (2.0 * p)) * (dist_lorentz(shifted) ** 2 - ratio ** 2 * state[start])
        start += 1 + 2 * k
    if problem.sdp_block is not None:
        order = problem.sdp_block.order
        size = order * order
        # c G + p Lambda entry by entry, as numpy forms it, from G(x) and Lambda row-major.
        shifted = [c * g + p * lam for g, lam in zip(state[start + 1 : start + 1 + size],
                                                     state[start + 1 + size :])]
        shifted_sq = dist_psd_minus_entries(shifted, order) ** 2
        # The only cone term of an SDP problem: set, not added to 0.0, so a -0.0 keeps its sign.
        total = (shifted_sq - p * p * state[start]) / (2.0 * c * p)
    value = f_val + total
    if problem.n_eq > 0:
        value += mu_h + (c / (2.0 * q)) * h_sq
    return float(value)


def c1_penalty_soc(problem: ConstrainedProblem, x, c: float, alpha: float = 1.0,
                   kappa: float = KAPPA_SOC, cfg: EstimatorConfig = DEFAULT_ESTIMATOR) -> float:
    """Continuously differentiable penalty for SOC/equality problems.

    F(x, c) = f(x)
      + (c / 2p) * sum_i [dist^2(g_i + (p/c) lambda_i, Q) - (p/c)^2 ||lambda_i||^2]
      + <mu, h> + (c / 2q) ||h||^2
    on the barrier domain, +inf outside it.
    """
    return _c1_penalty(False, problem, x, c, alpha, kappa, cfg)


def c1_penalty_sdp(problem: ConstrainedProblem, x, c: float, alpha: float = 1.0,
                   kappa: float = KAPPA_SDP, cfg: EstimatorConfig = DEFAULT_ESTIMATOR) -> float:
    """SDP counterpart:
    F = f + (1 / 2cp) (trace([cG + p lambda]_+^2) - p^2 trace(lambda^2))
        + <mu, h> + (c / 2q) ||h||^2,
    with trace([A]_+^2) = dist^2(A, S-).
    """
    return _c1_penalty(True, problem, x, c, alpha, kappa, cfg)


def _c1_penalty(sdp: bool, problem, x, c: float, alpha: float, kappa: float, cfg) -> float:
    """The one-shot C1 F of the cone ``sdp`` names, after checking its arguments."""
    check_penalty_parameter(c)
    check_cone(problem, sdp)
    check_barrier(sdp, alpha, kappa)
    return c1_value(problem, c1_state(problem, point_floats(problem, x), alpha, kappa, cfg), c)
