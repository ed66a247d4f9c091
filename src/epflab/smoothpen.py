"""Continuously differentiable exact penalty for SOC and SDP constrained
problems: multiplier-estimate subproblems, barrier terms, the penalty
itself, and the auxiliary inner-minimum representation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .cones import dist_lorentz, dist_psd_minus, proj_psd
from .errors import NotPositiveDefinite, OutsideDomain
from .numerics import chol_solve, eig_sym
from .problems import ConstrainedProblem

Array = np.ndarray


@dataclass(frozen=True)
class EstimatorConfig:
    """Weights of the multiplier-estimate subproblem; only positivity is
    required, 1.0 is the working default for both."""

    zeta1: float = 1.0
    zeta2: float = 1.0

    def __post_init__(self):
        if self.zeta1 <= 0 or self.zeta2 <= 0:
            raise ValueError("zeta1 and zeta2 must be positive")


DEFAULT_ESTIMATOR = EstimatorConfig()


@dataclass(frozen=True)
class MultiplierEstimate:
    """Multiplier estimate at a point x.

    ``block_dists`` holds the distance of each constraint block to its cone
    at x, dist(g_i(x), Q) per SOC block or (dist(G(x), S-),) for the SDP
    block, so the barrier at the same x does not compute them again.
    """

    lambdas: Tuple[Array, ...]
    mu: Array
    lam_sdp: Optional[Array] = None
    subproblem_residual: float = 0.0
    hessian_min_eig: Optional[float] = None
    degenerate: bool = False
    block_dists: Tuple[float, ...] = ()

    @property
    def lambda_norm_sq(self) -> float:
        total = sum(float(v @ v) for v in self.lambdas)
        if self.lam_sdp is not None:
            total += float(np.sum(self.lam_sdp * self.lam_sdp))
        return total

    @property
    def mu_norm_sq(self) -> float:
        return float(self.mu @ self.mu)


@dataclass(frozen=True)
class BarrierState:
    alpha: float
    kappa: float
    a_val: float
    b_val: float
    p_val: float
    q_val: float

    @property
    def inside_domain(self) -> bool:
        return self.a_val > 0.0 and self.b_val > 0.0


def _solve_normal_equations(normal: Array, rhs: Array, on_degenerate: str):
    """Minimize z'Nz + 2 rhs'z: solve N z = -rhs.

    ``on_degenerate="lstsq"`` falls back to the minimum-norm solution of
    the singular system instead of raising; degeneracy is still reported
    so callers can surface it.
    """
    degenerate = False
    try:
        z = chol_solve(normal, -rhs)
    except NotPositiveDefinite:
        if on_degenerate != "lstsq":
            raise
        z = np.linalg.lstsq(normal, -rhs, rcond=1e-10)[0]
        degenerate = True
    residual = float(np.linalg.norm(2.0 * (normal @ z + rhs)))
    return z, residual, degenerate


def estimate_multipliers_soc(
    problem: ConstrainedProblem,
    x,
    cfg: EstimatorConfig = DEFAULT_ESTIMATOR,
    on_degenerate: str = "raise",
    want_spectrum: bool = True,
) -> MultiplierEstimate:
    """Multiplier estimate (lambda(x), mu(x)) for SOC/equality problems.

    Minimizes the convex quadratic
      ||grad_x L||^2
      + zeta1 * sum_i (<lambda_i, g_i>^2 + ||(lambda_i)_0 gbar_i + (g_i)_0 lambdabar_i||^2)
      + (zeta2/2) * (||h||^2 + sum_i dist^2(g_i, Q)) * (||lambda||^2 + ||mu||^2)
    via its normal equations.  A singular system means the nondegeneracy
    surrogate failed at x.
    """
    x = np.asarray(x, dtype=float)
    blocks = problem.soc_blocks
    if problem.sdp_block is not None:
        raise ValueError("use estimate_multipliers_sdp for matrix-constrained problems")
    sizes = [b.dim for b in blocks]
    m = sum(sizes) + problem.n_eq
    if m == 0:
        return MultiplierEstimate(lambdas=(), mu=np.zeros(0), subproblem_residual=0.0,
                                  hessian_min_eig=math.inf)
    d = problem.dim
    grad_f = problem.grad_f(x)
    stack = np.zeros((d, m))
    normal = np.zeros((m, m))
    rho = 0.0
    dists = []
    col = 0
    for block in blocks:
        k = block.dim
        g_val = np.asarray(block.g(x), dtype=float)
        stack[:, col : col + k] = block.jacobian(x).T
        flat = np.zeros((k - 1, k))
        flat[:, 0] = g_val[1:]
        flat[:, 1:] = g_val[0] * np.eye(k - 1)
        normal[col : col + k, col : col + k] += cfg.zeta1 * (np.outer(g_val, g_val) + flat.T @ flat)
        dists.append(dist_lorentz(g_val))
        rho += dists[-1] ** 2
        col += k
    if problem.n_eq > 0:
        stack[:, col:] = problem.jac_h(x).T
        rho += float(np.linalg.norm(problem.h(x)) ** 2)
    normal += stack.T @ stack + 0.5 * cfg.zeta2 * rho * np.eye(m)
    rhs = stack.T @ grad_f
    z, residual, degenerate = _solve_normal_equations(normal, rhs, on_degenerate)
    lambdas = []
    col = 0
    for k in sizes:
        lambdas.append(z[col : col + k])
        col += k
    mu = z[col:]
    min_eig = None
    if want_spectrum:
        min_eig = float(eig_sym(normal).values[0])
    return MultiplierEstimate(
        lambdas=tuple(lambdas),
        mu=mu,
        subproblem_residual=residual,
        hessian_min_eig=min_eig,
        degenerate=degenerate,
        block_dists=tuple(dists),
    )


def _sym_basis(order: int) -> list:
    basis = []
    for i in range(order):
        for j in range(i, order):
            e = np.zeros((order, order))
            if i == j:
                e[i, i] = 1.0
            else:
                e[i, j] = 1.0
                e[j, i] = 1.0
            basis.append(e)
    return basis


def estimate_multipliers_sdp(
    problem: ConstrainedProblem,
    x,
    cfg: EstimatorConfig = DEFAULT_ESTIMATOR,
    on_degenerate: str = "raise",
    want_spectrum: bool = True,
) -> MultiplierEstimate:
    """SDP analogue of the multiplier estimate, with lambda a symmetric
    matrix parameterized by its upper-triangular entries."""
    x = np.asarray(x, dtype=float)
    block = problem.sdp_block
    if block is None:
        raise ValueError("problem has no SDP block")
    if problem.soc_blocks:
        raise ValueError("mixed SOC and SDP blocks are not supported")
    order = block.order
    basis = _sym_basis(order)
    n_lam = len(basis)
    m = n_lam + problem.n_eq
    d = problem.dim
    g_mat = np.asarray(block.G(x), dtype=float)
    derivs = block.derivative(x)
    grad_f = problem.grad_f(x)
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
            val = float(np.sum(ea * (g_sq @ basis[b])))
            curv[a, b] = val
            curv[b, a] = val
    gram = np.zeros(m)
    for a, e in enumerate(basis):
        gram[a] = float(np.sum(e * e))
    gram[n_lam:] = 1.0
    dist = dist_psd_minus(g_mat)
    rho = float(np.linalg.norm(problem.h(x)) ** 2) + dist ** 2
    normal = stack.T @ stack + cfg.zeta1 * 0.5 * (curv + curv.T) + 0.5 * cfg.zeta2 * rho * np.diag(gram)
    rhs = stack.T @ grad_f
    z, residual, degenerate = _solve_normal_equations(normal, rhs, on_degenerate)
    lam = np.zeros((order, order))
    for a, e in enumerate(basis):
        lam += z[a] * e
    mu = z[n_lam:]
    min_eig = None
    if want_spectrum:
        min_eig = float(eig_sym(normal).values[0])
    return MultiplierEstimate(
        lambdas=(),
        mu=mu,
        lam_sdp=lam,
        subproblem_residual=residual,
        hessian_min_eig=min_eig,
        degenerate=degenerate,
        block_dists=(dist,),
    )


def barrier_state_soc(
    problem: ConstrainedProblem, x, alpha: float, kappa: float, est: MultiplierEstimate
) -> BarrierState:
    """Barrier terms p(x), q(x) built from constraint violations and the
    multiplier estimate ``est`` at the same x; kappa >= 2 keeps dist^kappa
    differentiable."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if kappa < 2:
        raise ValueError("kappa must be >= 2 for SOC problems")
    x = np.asarray(x, dtype=float)
    dist_sum = 0.0
    for dist in est.block_dists:
        dist_sum += dist ** kappa
    a_val = alpha - dist_sum
    b_val = alpha - float(np.linalg.norm(problem.h(x)) ** 2)
    p_val = a_val / (1.0 + est.lambda_norm_sq)
    q_val = b_val / (1.0 + est.mu_norm_sq)
    return BarrierState(alpha=alpha, kappa=kappa, a_val=a_val, b_val=b_val, p_val=p_val, q_val=q_val)


def barrier_state_sdp(
    problem: ConstrainedProblem, x, alpha: float, kappa: float, est: MultiplierEstimate
) -> BarrierState:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if kappa < 1:
        raise ValueError("kappa must be >= 1 for SDP problems")
    x = np.asarray(x, dtype=float)
    dist_sq = est.block_dists[0] ** 2
    a_val = alpha - dist_sq ** kappa
    b_val = alpha - float(np.linalg.norm(problem.h(x)) ** 2)
    p_val = a_val / (1.0 + est.lambda_norm_sq)
    q_val = b_val / (1.0 + est.mu_norm_sq)
    return BarrierState(alpha=alpha, kappa=kappa, a_val=a_val, b_val=b_val, p_val=p_val, q_val=q_val)


def c1_penalty_soc(
    problem: ConstrainedProblem,
    x,
    c: float,
    alpha: float = 1.0,
    kappa: float = 2.0,
    cfg: EstimatorConfig = DEFAULT_ESTIMATOR,
    on_degenerate: str = "lstsq",
) -> float:
    """Continuously differentiable penalty for SOC/equality problems.

    F(x, c) = f(x)
      + (c / 2p) * sum_i [dist^2(g_i + (p/c) lambda_i, Q) - (p/c)^2 ||lambda_i||^2]
      + <mu, h> + (c / 2q) ||h||^2
    on the barrier domain, +inf outside it.
    """
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    x = np.asarray(x, dtype=float)
    est = estimate_multipliers_soc(problem, x, cfg, on_degenerate=on_degenerate, want_spectrum=False)
    state = barrier_state_soc(problem, x, alpha, kappa, est)
    if not state.inside_domain:
        return math.inf
    p = state.p_val
    value = problem.f(x)
    for block, lam_i in zip(problem.soc_blocks, est.lambdas):
        g_val = np.asarray(block.g(x), dtype=float)
        shifted = g_val + (p / c) * lam_i
        value += (c / (2.0 * p)) * (dist_lorentz(shifted) ** 2 - (p / c) ** 2 * float(lam_i @ lam_i))
    if problem.n_eq > 0:
        h_val = problem.h(x)
        value += float(est.mu @ h_val) + (c / (2.0 * state.q_val)) * float(h_val @ h_val)
    return float(value)


def c1_penalty_sdp(
    problem: ConstrainedProblem,
    x,
    c: float,
    alpha: float = 1.0,
    kappa: float = 1.0,
    cfg: EstimatorConfig = DEFAULT_ESTIMATOR,
    on_degenerate: str = "lstsq",
) -> float:
    """SDP counterpart:
    F = f + (1 / 2cp) (trace([cG + p lambda]_+^2) - p^2 trace(lambda^2))
        + <mu, h> + (c / 2q) ||h||^2.
    """
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    x = np.asarray(x, dtype=float)
    est = estimate_multipliers_sdp(problem, x, cfg, on_degenerate=on_degenerate, want_spectrum=False)
    state = barrier_state_sdp(problem, x, alpha, kappa, est)
    if not state.inside_domain:
        return math.inf
    p = state.p_val
    g_mat = np.asarray(problem.sdp_block.G(x), dtype=float)
    shifted_plus = proj_psd(c * g_mat + p * est.lam_sdp)
    lam_sq = float(np.sum(est.lam_sdp * est.lam_sdp))
    value = problem.f(x) + (float(np.sum(shifted_plus * shifted_plus)) - p * p * lam_sq) / (2.0 * c * p)
    if problem.n_eq > 0:
        h_val = problem.h(x)
        value += float(est.mu @ h_val) + (c / (2.0 * state.q_val)) * float(h_val @ h_val)
    return float(value)


def phi_aux(
    problem: ConstrainedProblem,
    x,
    c: float,
    alpha: float = 1.0,
    kappa: float = 2.0,
    cfg: EstimatorConfig = DEFAULT_ESTIMATOR,
) -> float:
    """Inner minimum Phi(x, c) = min over y in K - G(x) of
    (-p <lambda, y> + (c/2)||y||^2), in closed form.

    Satisfies f + Phi/p + <mu, h> + (c/2q)||h||^2 = c1_penalty_soc.
    """
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    x = np.asarray(x, dtype=float)
    est = estimate_multipliers_soc(problem, x, cfg, on_degenerate="lstsq", want_spectrum=False)
    state = barrier_state_soc(problem, x, alpha, kappa, est)
    if not state.inside_domain:
        raise OutsideDomain(f"x outside Omega_alpha (a={state.a_val}, b={state.b_val})")
    p = state.p_val
    total = 0.0
    for block, lam_i in zip(problem.soc_blocks, est.lambdas):
        g_val = np.asarray(block.g(x), dtype=float)
        shifted = g_val + (p / c) * lam_i
        total += (c / 2.0) * dist_lorentz(shifted) ** 2 - (p * p / (2.0 * c)) * float(lam_i @ lam_i)
    return float(total)
