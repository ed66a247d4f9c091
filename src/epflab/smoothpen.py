"""Continuously differentiable exact penalty for SOC and SDP constrained
problems: multiplier-estimate subproblems, barrier terms and the penalty
itself."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .cones import dist_lorentz, dist_psd_minus
from .errors import NonFiniteEvaluation, NotPositiveDefinite
from .numerics import chol_solve
from .problems import ConstrainedProblem

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

    ``g_vals`` holds the constraint values at x, g_i(x) per SOC block or
    (G(x),) for the SDP block, ``h_val`` holds h(x), and ``block_dists``
    the distance of each constraint block to its cone at x, dist(g_i(x), Q)
    or (dist(G(x), S-),), so the barrier and the penalty at the same x do
    not evaluate them again.  ``lambda_norm_sq`` is ||lambda||^2 over every
    cone block, computed once by the estimator.
    """

    lambdas: Tuple[Array, ...]
    mu: Array
    lam_sdp: Optional[Array] = None
    degenerate: bool = False
    block_dists: Tuple[float, ...] = ()
    g_vals: Tuple[Array, ...] = ()
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


def _solve_normal_equations(normal: Array, rhs: Array):
    """Minimize z'Nz + 2 rhs'z: solve N z = -rhs by Cholesky.

    A singular system means the nondegeneracy surrogate failed at x; the
    minimum-norm solution is returned instead, flagged as degenerate.
    """
    try:
        return chol_solve(normal, -rhs), False
    except NotPositiveDefinite:
        return np.linalg.lstsq(normal, -rhs, rcond=1e-10)[0], True


def estimate_multipliers_soc(
    problem: ConstrainedProblem,
    x,
    cfg: EstimatorConfig = DEFAULT_ESTIMATOR,
) -> MultiplierEstimate:
    """Multiplier estimate (lambda(x), mu(x)) for SOC/equality problems.

    Minimizes the convex quadratic
      ||grad_x L||^2
      + zeta1 * sum_i (<lambda_i, g_i>^2 + ||(lambda_i)_0 gbar_i + (g_i)_0 lambdabar_i||^2)
      + (zeta2/2) * (||h||^2 + sum_i dist^2(g_i, Q)) * (||lambda||^2 + ||mu||^2)
    via its normal equations; a singular system gives the minimum-norm
    estimate with ``degenerate`` set.  A non-finite constraint value (g_i,
    h, or G in the SDP analogue) raises NonFiniteEvaluation.
    """
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
        # g g' + F'F with F = [gbar, g0 I] on floats: 2 g0 g_j along the head row
        # and column, g_i^2 + g0^2 on the tail diagonal; 0.0 + turns -0.0 into 0.0.
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
        lambdas=tuple(lambdas),
        mu=z[col:],
        degenerate=degenerate,
        block_dists=tuple(dists),
        g_vals=tuple(g_vals),
        h_val=h_val,
        lambda_norm_sq=sum(float(v @ v) for v in lambdas),
    )


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


def _sdp_normal(normal: Array, curv: Array, gram: Array, cfg: EstimatorConfig, rho: float) -> Array:
    """normal + zeta1 (curv + curv') / 2 + (zeta2 / 2) rho diag(gram), added
    into ``normal`` in that order, with the bits of the sum written out."""
    sym_curv = curv + curv.T
    sym_curv *= cfg.zeta1 * 0.5
    normal += sym_curv
    ridge = 0.5 * cfg.zeta2 * rho
    diag = normal.diagonal() + ridge * gram
    # diag(gram) adds ridge * 0.0 off the diagonal, which turns -0.0 into 0.0.
    normal += ridge * 0.0
    normal.flat[:: len(gram) + 1] = diag
    return normal


def estimate_multipliers_sdp(
    problem: ConstrainedProblem,
    x,
    cfg: EstimatorConfig = DEFAULT_ESTIMATOR,
) -> MultiplierEstimate:
    """SDP analogue of the multiplier estimate, with lambda a symmetric
    matrix parameterized by its upper-triangular entries."""
    x = np.asarray(x, dtype=float)
    block = problem.sdp_block
    if block is None:
        raise ValueError("problem has no SDP block")
    if problem.soc_blocks:
        raise ValueError("mixed SOC and SDP blocks are not supported")
    # <E_a, M> for every basis matrix E_a is one product with the flat basis.
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
        lambdas=(),
        mu=z[n_lam:],
        lam_sdp=lam_sdp,
        degenerate=degenerate,
        block_dists=(dist,),
        g_vals=(g_mat,),
        h_val=h_val,
        lambda_norm_sq=float(np.sum(lam_sdp * lam_sdp)),
    )


def barrier_state_soc(alpha: float, kappa: float, est: MultiplierEstimate) -> BarrierState:
    """Barrier terms p(x), q(x) built from constraint violations and the
    multiplier estimate ``est`` at x, whose constraint values and cone
    distances it reads; kappa >= 2 keeps dist^kappa differentiable."""
    if not 2.0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and >= 2 for SOC problems")
    dist_sum = sum(dist ** kappa for dist in est.block_dists)
    return _barrier_state(alpha, alpha - dist_sum, est)


def barrier_state_sdp(alpha: float, kappa: float, est: MultiplierEstimate) -> BarrierState:
    if not 1.0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and >= 1 for SDP problems")
    dist_sq = est.block_dists[0] ** 2
    return _barrier_state(alpha, alpha - dist_sq ** kappa, est)


def _barrier_state(alpha: float, a_val: float, est: MultiplierEstimate) -> BarrierState:
    """b(x), p(x) and q(x) from a(x) and the multiplier estimate at the same x."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    b_val = alpha - math.sqrt(est.h_val @ est.h_val) ** 2
    p_val = a_val / (1.0 + est.lambda_norm_sq)
    q_val = b_val / (1.0 + float(est.mu @ est.mu))
    return BarrierState(a_val=a_val, b_val=b_val, p_val=p_val, q_val=q_val)


def check_cone(problem: ConstrainedProblem, sdp: bool) -> None:
    """ValueError unless ``problem`` has an SDP block exactly when ``sdp``."""
    if (problem.sdp_block is not None) != sdp:
        raise ValueError(f"c1-{'sdp' if sdp else 'socp'} does not fit {problem.name}, which has "
                         f"{'no' if sdp else 'an'} SDP block")


# A c1 state starts with f(x), p(x), q(x), <mu(x), h(x)> and ||h(x)||^2.
_HEAD = 5


def c1_state(problem: ConstrainedProblem, x, alpha: float, kappa: float,
             cfg: EstimatorConfig = DEFAULT_ESTIMATOR) -> Optional[Array]:
    """The part of the C1 penalty at x that does not read c, in one float64
    array: the head (f, p, q, <mu, h>, ||h||^2), then per cone block
    ||lambda_i||^2, g_i(x) and lambda_i (Lambda and G(x) row-major).  The
    multiplier estimate and the barrier are the SDP ones on a problem with an
    SDP block, else the SOC ones.  None outside the barrier domain."""
    x = np.asarray(x, dtype=float)
    sdp = problem.sdp_block is not None
    est = (estimate_multipliers_sdp if sdp else estimate_multipliers_soc)(problem, x, cfg)
    barrier = (barrier_state_sdp if sdp else barrier_state_soc)(alpha, kappa, est)
    if not barrier.inside_domain:
        return None
    h_val = est.h_val
    mu_h, h_sq = (float(est.mu @ h_val), float(h_val @ h_val)) if problem.n_eq > 0 else (0.0, 0.0)
    parts = [(problem.f(x), barrier.p_val, barrier.q_val, mu_h, h_sq)]
    for g_val, lam_i in zip(est.g_vals, est.lambdas):  # no SOC blocks on an SDP problem
        parts += ((float(lam_i @ lam_i),), g_val, lam_i)
    if sdp:
        parts += ((est.lambda_norm_sq,), est.g_vals[0].ravel(), est.lam_sdp.ravel())
    return np.concatenate(parts)


def c1_value(problem: ConstrainedProblem, state: Optional[Array], c: float) -> float:
    """The C1 penalty at c from its ``c1_state``; +inf for None."""
    if state is None:
        return math.inf
    f_val, p, q, mu_h, h_sq = state[:_HEAD].tolist()
    total = 0.0
    start = _HEAD
    for block in problem.soc_blocks:
        k = block.dim
        g_val = state[start + 1 : start + 1 + k]
        lam_i = state[start + 1 + k : start + 1 + 2 * k]
        shifted = g_val + (p / c) * lam_i
        total += (c / (2.0 * p)) * (dist_lorentz(shifted) ** 2 - (p / c) ** 2 * float(state[start]))
        start += 1 + 2 * k
    if problem.sdp_block is not None:
        g_lam = state[start + 1 :].reshape(2, -1, problem.sdp_block.order)  # G(x), Lambda
        shifted_sq = dist_psd_minus(c * g_lam[0] + p * g_lam[1]) ** 2
        # The only cone term of an SDP problem: set, not added to 0.0, so a -0.0 keeps its sign.
        total = (shifted_sq - p * p * float(state[start])) / (2.0 * c * p)
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
    if not 0.0 < c < math.inf:
        raise ValueError("penalty parameter c must be positive and finite")
    check_cone(problem, sdp=False)
    return c1_value(problem, c1_state(problem, x, alpha, kappa, cfg), c)


def c1_penalty_sdp(problem: ConstrainedProblem, x, c: float, alpha: float = 1.0,
                   kappa: float = KAPPA_SDP, cfg: EstimatorConfig = DEFAULT_ESTIMATOR) -> float:
    """SDP counterpart:
    F = f + (1 / 2cp) (trace([cG + p lambda]_+^2) - p^2 trace(lambda^2))
        + <mu, h> + (c / 2q) ||h||^2,
    with trace([A]_+^2) = dist^2(A, S-).
    """
    if not 0.0 < c < math.inf:
        raise ValueError("penalty parameter c must be positive and finite")
    check_cone(problem, sdp=True)
    return c1_value(problem, c1_state(problem, x, alpha, kappa, cfg), c)
