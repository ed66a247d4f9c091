"""Rockafellar-Wets augmented Lagrangian: dualizing parameterizations,
augmenting functions, a grid oracle for the inner infimum, and the
closed form of the conic augmented Lagrangian."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .cones import dist_lorentz, dist_psd_minus
from .errors import UnboundedBelow
from .problems import ConstrainedProblem

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps per refinement: the bracket shrinks by 0.618^80 ~ 2e-17.
GOLDEN_ITERS = 80
# valley_check: random perturbations drawn per radius.
VALLEY_SAMPLES = 2000


@dataclass(frozen=True)
class DualizingParam:
    """Perturbation scheme Phi(x, p) with Phi(x, 0) = f(x) on the feasible set."""

    evaluator: Callable[[np.ndarray, np.ndarray], float]
    p_dim: int

    def __call__(self, x, p) -> float:
        return float(self.evaluator(np.asarray(x, float), np.asarray(p, float)))


@dataclass(frozen=True)
class AugmentingFn:
    """Nonnegative sigma with sigma(0) = 0 and sigma(p) > 0 elsewhere."""

    evaluator: Callable[[np.ndarray], float]

    def __call__(self, p) -> float:
        return float(self.evaluator(np.atleast_1d(np.asarray(p, float))))


def half_norm_squared() -> AugmentingFn:
    return AugmentingFn(lambda p: 0.5 * float(p @ p))


def norm_augmenting() -> AugmentingFn:
    return AugmentingFn(lambda p: float(np.linalg.norm(p)))


def flat_tail_augmenting() -> AugmentingFn:
    """Valley-violating fixture: vanishes again at ||p|| = 2."""
    return AugmentingFn(lambda p: min(float(np.linalg.norm(p)), max(0.0, 2.0 - float(np.linalg.norm(p)))))


@dataclass(frozen=True)
class ALValue:
    value: float
    inner_argmin: Optional[np.ndarray]


@dataclass(frozen=True)
class GridSpec:
    lower: np.ndarray
    upper: np.ndarray
    n_per_axis: int = 41


# Stiffness of the finite-valued stand-in for the exact equality shift
# parameterization; large enough that the inner minimum matches the
# indicator version to ~1e-8 at benchmark scales.
EQ_STIFFNESS = 1e12


def equality_parameterization(problem: ConstrainedProblem) -> DualizingParam:
    """Constraint-shift parameterization for equality constraints.

    The exact scheme is f(x) plus the indicator of h(x) + p = 0, which a
    grid oracle cannot sample; a stiff quadratic (EQ_STIFFNESS/2)||h + p||^2
    stands in for the indicator.  Phi(x, 0) = f(x) holds exactly on the
    feasible set.
    """

    def evaluate(x, p):
        resid = problem.h(x) + p
        return problem.f(x) + 0.5 * EQ_STIFFNESS * float(resid @ resid)

    return DualizingParam(evaluator=evaluate, p_dim=problem.n_eq)


def inequality_parameterization(ineq: Callable, n_ineq: int, objective: Callable) -> DualizingParam:
    """Slack-shift parameterization for scalar inequalities u(x) <= 0:
    Phi(x, p) = f(x) if u(x) + p <= 0 componentwise, +inf otherwise."""

    def evaluate(x, p):
        u = np.atleast_1d(np.asarray(ineq(x), float))
        if np.all(u + p <= 0.0):
            return float(objective(x))
        return math.inf

    return DualizingParam(evaluator=evaluate, p_dim=n_ineq)


def _golden_section(func, lo: float, hi: float) -> Tuple[float, float]:
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = func(x1), func(x2)
    for _ in range(GOLDEN_ITERS):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = func(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = func(x2)
    mid = 0.5 * (a + b)
    return mid, func(mid)


def al_eval_grid(
    dual: DualizingParam,
    aug: AugmentingFn,
    x,
    lam,
    c: float,
    grid: GridSpec,
) -> ALValue:
    """Inner infimum of Phi(x, p) - <lam, p> + c*sigma(p) by exhaustive
    grid search plus one coordinate-wise golden-section refinement pass.

    Validation oracle only; perturbation dimension is capped at 3.  It is
    reliable only when the feasible set of p is box-shaped (scalar
    inequality or equality parameterizations): on a curved Lorentz wall
    the golden refinement stalls, with relative errors up to 3e-2
    measured against the closed form, and a finer grid does not help.
    """
    if dual.p_dim > 3:
        raise ValueError("grid oracle supports perturbation dimension <= 3")
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    x = np.asarray(x, dtype=float)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))

    def psi(p):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        val = dual(x, p) - float(lam @ p) + c * aug(p)
        return val if not math.isnan(val) else math.inf

    lower = np.atleast_1d(np.asarray(grid.lower, dtype=float))
    upper = np.atleast_1d(np.asarray(grid.upper, dtype=float))
    axes = [np.linspace(lower[i], upper[i], grid.n_per_axis) for i in range(dual.p_dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    values = np.array([psi(pt) for pt in points])
    finite = np.isfinite(values)
    if not np.any(finite):
        raise UnboundedBelow("no finite value on the perturbation grid")
    best_flat = int(np.argmin(np.where(finite, values, math.inf)))
    best_idx = np.unravel_index(best_flat, mesh[0].shape)
    best_p = points[best_flat].copy()
    # Values still decreasing at the grid edge signal inf_p = -inf risk.
    for axis in range(dual.p_dim):
        idx = best_idx[axis]
        if idx in (0, grid.n_per_axis - 1):
            inward = list(best_idx)
            inward[axis] += 1 if idx == 0 else -1
            inward_flat = int(np.ravel_multi_index(tuple(inward), mesh[0].shape))
            if values[best_flat] < values[inward_flat] - 1e-12:
                raise UnboundedBelow(f"grid values decrease outward along axis {axis}")
    spacing = [(upper[i] - lower[i]) / (grid.n_per_axis - 1) for i in range(dual.p_dim)]
    p = best_p
    for _ in range(2):
        for axis in range(dual.p_dim):
            def along(t, axis=axis):
                q = p.copy()
                q[axis] = t
                return psi(q)

            lo_t = max(lower[axis], p[axis] - spacing[axis])
            hi_t = min(upper[axis], p[axis] + spacing[axis])
            t_best, _ = _golden_section(along, lo_t, hi_t)
            candidate = p.copy()
            candidate[axis] = t_best
            if psi(candidate) <= psi(p):
                p = candidate
    return ALValue(value=float(psi(p)), inner_argmin=p)


def hpr_closed_form(problem: ConstrainedProblem, x, lam=None, lam_sdp=None, mu=None,
                    c: float = 1.0) -> float:
    """Augmented Lagrangian of the cone program in closed form, with
    sigma = (1/2)||p||^2 (Shapiro and Sun, Math. Oper. Res. 29, 2004):

      f + sum_i (dist_Q(lam_i + c g_i)^2 - ||lam_i||^2) / 2c     (SOC blocks)
        + (dist_{-S+}(Lam + c G)^2 - ||Lam||_F^2) / 2c          (SDP block)
        + <mu, h> + (c/2)||h||^2                                (equalities)

    The multipliers follow ``kkt_residual``: ``lam`` holds one array per
    SOC block, ``lam_sdp`` the matrix and ``mu`` the equalities' vector;
    a missing one is zero.  On a flat block (-u(x), 0) with lam_i =
    (-l, 0) an SOC term is the classic ([l + c u]_+^2 - l^2) / 2c.
    """
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    x = np.asarray(x, dtype=float)
    value = problem.f(x)
    for i, block in enumerate(problem.soc_blocks):
        lam_i = np.zeros(block.dim) if lam is None else lam[i]
        d = dist_lorentz(lam_i + c * np.asarray(block.g(x), dtype=float))
        value += (d * d - float(lam_i @ lam_i)) / (2.0 * c)
    if problem.sdp_block is not None:
        order = problem.sdp_block.order
        lam_m = np.zeros((order, order)) if lam_sdp is None else lam_sdp
        d = dist_psd_minus(lam_m + c * np.asarray(problem.sdp_block.G(x), dtype=float))
        value += (d * d - float(np.sum(lam_m * lam_m))) / (2.0 * c)
    if problem.n_eq > 0:
        mu = np.zeros(problem.n_eq) if mu is None else np.atleast_1d(np.asarray(mu, float))
        h_val = problem.h(x)
        value += float(mu @ h_val) + 0.5 * c * float(h_val @ h_val)
    return float(value)


def valley_check(aug: AugmentingFn, radii: Sequence[float], p_dim: int = 1) -> bool:
    """Sampled valley-at-zero test: sigma must stay bounded away from 0
    outside every neighborhood of the origin, sampled on each shell
    r <= ||p|| <= max(4, 4 max(radii))."""
    radii = list(radii)
    if not radii or any(r <= 0 for r in radii) or sorted(radii) != radii:
        raise ValueError("radii must be positive and ascending")
    rng = np.random.default_rng(0)
    outer = max(4.0, 4.0 * max(radii))
    ok = True
    for r in radii:
        smallest = math.inf
        for _ in range(VALLEY_SAMPLES):
            direction = rng.normal(size=p_dim)
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                continue
            magnitude = rng.uniform(r, outer)
            smallest = min(smallest, aug(direction / norm * magnitude))
        if not smallest > 0.0:
            ok = False
    return ok
