"""Checkers of the paper's side conditions, which only the tests read.

No command or report of epflab reads these, so they live beside their
tests: cone membership, the Moreau residual and a reference vector norm,
the feasible sets of the registry problems, the Q-function and
error-bound checkers, the Rockafellar-Wets grid oracle and valley check,
the inner-minimum representation ``phi_aux`` and the diagnostics of the
multiplier-estimate subproblem.  Their sampling budgets, seeds and
tolerances are module constants.
"""

import math

import numpy as np

from epflab import smoothpen
from epflab.cones import proj_lorentz
from epflab.errors import EpflabError
from epflab.numerics import eig_sym, sym
from epflab.smoothpen import KAPPA_SOC, barrier_state_soc, estimate_multipliers_soc


class UnboundedBelow(EpflabError):
    """Grid minimization detected values decreasing toward the grid edge."""


class OutsideDomain(EpflabError):
    """Point lies outside the effective domain of the penalty."""


class NoFeasibleDistanceOracle(EpflabError):
    """No way to compute dist(x, Omega) for this problem."""


# ---------------------------------------------------------------------------
# Cones and eigendecompositions
# ---------------------------------------------------------------------------

LORENTZ_MEMBER_TOL = 1e-12
PSD_MEMBER_TOL = 1e-8


def in_lorentz(y) -> bool:
    y = np.asarray(y, dtype=float)
    return y[0] >= np.linalg.norm(y[1:]) - LORENTZ_MEMBER_TOL


def in_psd_minus(a) -> bool:
    decomp = eig_sym(sym(a))
    return float(decomp.values[-1]) <= PSD_MEMBER_TOL


def reference_norm(v) -> float:
    """sqrt(v @ v) of a 1-D array; where the sum of squares overflows with
    every entry finite, the norm scaled by the largest |entry|, as the cone
    distances compute it."""
    with np.errstate(over="ignore"):
        sq = v @ v
    if sq == math.inf and np.isfinite(v).all():
        scale = np.abs(v).max()
        return scale * math.sqrt((v / scale) @ (v / scale))
    return math.sqrt(sq)


def moreau_check(y) -> float:
    """Residual of the Moreau decomposition y = proj_K(y) + proj_{-K}(y).

    The Lorentz cone is self-dual, so the polar projection is
    -proj_K(-y).  The residual should vanish to roundoff for every y.
    """
    y = np.asarray(y, dtype=float)
    polar_part = -proj_lorentz(-y)
    return float(np.linalg.norm(y - proj_lorentz(y) - polar_part))


def reconstruct(decomp) -> np.ndarray:
    """V diag(w) V' from an ``eig_sym`` decomposition."""
    return (decomp.vectors * decomp.values) @ decomp.vectors.T


# ---------------------------------------------------------------------------
# Feasible sets of the registry problems, by name
# ---------------------------------------------------------------------------


def _project_eq_1(x):
    x = np.asarray(x, dtype=float)
    shift = (x[0] + x[1] - 2.0) / 2.0
    return x - shift * np.ones(2)


def _project_socp_2(x):
    # Omega is the ray {x1 = x2 >= 0}.
    t = max(0.0, 0.5 * (x[0] + x[1]))
    return np.array([t, t])


def _sample_eq_1(rng):
    t = rng.uniform(-1.0, 3.0)
    return np.array([t, 2.0 - t])


def _sample_socp_1(rng):
    tail = rng.uniform(-2.0, 2.0)
    head = rng.uniform(abs(tail), 3.0)
    return np.array([head, tail])


def _sample_socp_2(rng):
    t = rng.uniform(0.0, 3.0)
    return np.array([t, t])


# Projection onto the feasible set Omega (the dist oracle of the error bound).
PROJECT_FEASIBLE = {
    "toy-lin-1": lambda x: np.clip(np.asarray(x, float), -2.0, 0.0),
    "toy-eq-1": _project_eq_1,
    "toy-socp-1": proj_lorentz,
    "toy-socp-2": _project_socp_2,
    "toy-sdp-1": lambda x: np.array([min(x[0], 0.5), max(x[1], 0.0)]),
}
# A random feasible point, drawn from a numpy Generator.
SAMPLE_FEASIBLE = {
    "toy-lin-1": lambda rng: np.array([rng.uniform(-2.0, 0.0)]),
    "toy-eq-1": _sample_eq_1,
    "toy-socp-1": _sample_socp_1,
    "toy-socp-2": _sample_socp_2,
    "toy-sdp-1": lambda rng: np.array([rng.uniform(-2.0, 0.5), rng.uniform(0.0, 3.0)]),
}


# ---------------------------------------------------------------------------
# Q-function and error-bound checkers
# ---------------------------------------------------------------------------

# check_strict_monotone samples Q on this many points per axis of [0, 5]^2.
MONOTONE_GRID = 20
# check_q_local_condition tests this many t values in [0, t0).
Q_LOCAL_GRID = 200


def check_strict_monotone(qf) -> bool:
    """Sampled strict monotonicity on a ``MONOTONE_GRID``-square grid of [0, 5]^2."""
    axis = np.linspace(0.0, 5.0, MONOTONE_GRID)
    vals = np.array([[qf(t, s) for s in axis] for t in axis])
    along_t = np.diff(vals, axis=0)
    along_s = np.diff(vals, axis=1)
    return bool(np.all(along_t > 0) and np.all(along_s > 0))


def check_q_local_condition(qf, f_star_val: float, c0: float, t0: float) -> bool:
    """Grid check (``Q_LOCAL_GRID`` points) of the local-exactness condition
    Q(f* - t, c0*t) >= Q(f*, 0) for all t in [0, t0).

    Holds for the q-th order instance with q <= 1 and fails for q > 1.
    """
    if not (0.0 < t0 < f_star_val):
        raise ValueError("t0 must lie in (0, f_star_val)")
    base = qf(f_star_val, 0.0)
    for t in np.linspace(0.0, t0, Q_LOCAL_GRID, endpoint=False):
        if qf(f_star_val - t, c0 * t) < base - 1e-14:
            return False
    return True


def estimate_error_bound(problem, phi, x_center, radius: float, alpha: float, n_samples: int):
    """Empirical error-bound modulus ``(tau, samples used)``: tau is the
    minimum of phi(x)/dist(x, Omega)^alpha over uniform samples in
    B(x_center, radius) intersected with the box, drawn with seed 0.

    The true modulus is the infimum over the whole region, so a minimum
    over samples can only overestimate it: the estimate is never below
    the true modulus.  +inf signals that no infeasible sample was drawn.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if problem.name not in PROJECT_FEASIBLE:
        raise NoFeasibleDistanceOracle(f"{problem.name} has no Omega-projection oracle")
    x_center = np.asarray(x_center, dtype=float)
    rng = np.random.default_rng(0)
    lo, hi = problem.box()
    tau = math.inf
    used = 0
    for _ in range(n_samples):
        step = rng.uniform(-radius, radius, size=problem.dim)
        x = np.clip(x_center + step, lo, hi)
        dist = float(np.linalg.norm(x - PROJECT_FEASIBLE[problem.name](x)))
        if dist <= 1e-9:
            continue
        used += 1
        tau = min(tau, float(phi(x)) / dist ** alpha)
    return tau, used


# ---------------------------------------------------------------------------
# Rockafellar-Wets augmented Lagrangian: a dualizing parameterization is a
# callable Phi(x, p), an augmenting function a callable sigma(p).
# ---------------------------------------------------------------------------

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps per refinement: the bracket shrinks by 0.618^80 ~ 2e-17.
GOLDEN_ITERS = 80
# valley_check: random perturbations drawn per radius.
VALLEY_SAMPLES = 2000
# Stiffness of the finite-valued stand-in for the exact equality shift
# parameterization; large enough that the inner minimum matches the
# indicator version to ~1e-8 at benchmark scales.
EQ_STIFFNESS = 1e12


def half_norm_squared(p) -> float:
    return 0.5 * float(p @ p)


def norm_augmenting(p) -> float:
    return float(np.linalg.norm(p))


def flat_tail_augmenting(p) -> float:
    """Valley-violating fixture: vanishes again at ||p|| = 2."""
    return min(float(np.linalg.norm(p)), max(0.0, 2.0 - float(np.linalg.norm(p))))


def equality_parameterization(problem):
    """Constraint-shift parameterization for equality constraints.

    The exact scheme is f(x) plus the indicator of h(x) + p = 0, which a
    grid oracle cannot sample; a stiff quadratic (EQ_STIFFNESS/2)||h + p||^2
    stands in for the indicator.  Phi(x, 0) = f(x) holds exactly on the
    feasible set.
    """

    def evaluate(x, p):
        resid = problem.h(x) + p
        return problem.f(x) + 0.5 * EQ_STIFFNESS * float(resid @ resid)

    return evaluate


def inequality_parameterization(ineq, objective):
    """Slack-shift parameterization for scalar inequalities u(x) <= 0:
    Phi(x, p) = f(x) if u(x) + p <= 0 componentwise, +inf otherwise."""

    def evaluate(x, p):
        u = np.atleast_1d(np.asarray(ineq(x), float))
        if np.all(u + p <= 0.0):
            return float(objective(x))
        return math.inf

    return evaluate


def _golden_section(func, lo: float, hi: float):
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


def al_eval_grid(dual, aug, x, lam, c: float, lower, upper, n_per_axis: int = 41):
    """``(value, inner argmin)`` of the inner infimum of
    Phi(x, p) - <lam, p> + c*sigma(p) over the box [lower, upper] of p, by
    exhaustive grid search plus one coordinate-wise golden-section
    refinement pass.

    Validation oracle only; perturbation dimension is capped at 3.  It is
    reliable only when the feasible set of p is box-shaped (scalar
    inequality or equality parameterizations): on a curved Lorentz wall
    the golden refinement stalls, with relative errors up to 3e-2
    measured against the closed form, and a finer grid does not help.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    p_dim = lower.shape[0]
    if p_dim > 3:
        raise ValueError("grid oracle supports perturbation dimension <= 3")
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    x = np.asarray(x, dtype=float)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))

    def psi(p):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        val = dual(x, p) - float(lam @ p) + c * aug(p)
        return val if not math.isnan(val) else math.inf

    axes = [np.linspace(lower[i], upper[i], n_per_axis) for i in range(p_dim)]
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
    for axis in range(p_dim):
        idx = best_idx[axis]
        if idx in (0, n_per_axis - 1):
            inward = list(best_idx)
            inward[axis] += 1 if idx == 0 else -1
            inward_flat = int(np.ravel_multi_index(tuple(inward), mesh[0].shape))
            if values[best_flat] < values[inward_flat] - 1e-12:
                raise UnboundedBelow(f"grid values decrease outward along axis {axis}")
    spacing = [(upper[i] - lower[i]) / (n_per_axis - 1) for i in range(p_dim)]
    p = best_p
    for _ in range(2):
        for axis in range(p_dim):
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
    return float(psi(p)), p


def valley_check(aug, radii, p_dim: int = 1) -> bool:
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


# ---------------------------------------------------------------------------
# C1 penalty: inner-minimum representation and subproblem diagnostics
# ---------------------------------------------------------------------------


def phi_aux(problem, x, c: float) -> float:
    """Inner minimum Phi(x, c) = min over y in K - g(x) of
    (-p <lambda, y> + (c/2)||y||^2), from its definition:
    sum_i [-p <lambda_i, y_i*> + (c/2)||y_i*||^2] at the minimizer
    y_i* = proj_Q(g_i + (p/c) lambda_i) - g_i.

    Taken at ``c1_penalty_soc``'s defaults (alpha = 1, ``KAPPA_SOC``, the
    default estimator), f + Phi/p + <mu, h> + (c/2q)||h||^2 should equal
    that penalty; this is computed apart from the penalty's block sum.
    """
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    x = np.asarray(x, dtype=float)
    est = estimate_multipliers_soc(problem, x)
    state = barrier_state_soc(1.0, KAPPA_SOC, est)
    if not state.inside_domain:
        raise OutsideDomain(f"x outside Omega_alpha (a={state.a_val}, b={state.b_val})")
    p = state.p_val
    total = 0.0
    for block, lam in zip(problem.soc_blocks, est.lambdas):
        g_val = np.asarray(block.g(x), dtype=float)
        y = proj_lorentz(g_val + (p / c) * lam) - g_val
        total += -p * float(lam @ y) + 0.5 * c * float(y @ y)
    return total


def subproblem_diagnostics(problem, x):
    """Run ``estimate_multipliers_soc`` and return ``(estimate, residual,
    least eigenvalue)`` of the normal equations N z = -rhs it solved, captured
    at ``smoothpen._solve_normal_equations``: the norm of the subproblem
    gradient 2 (N z + rhs) at z, and the least eigenvalue of N.  With no
    multipliers nothing is solved, and they are 0.0 and +inf."""
    seen = []
    solve = smoothpen._solve_normal_equations

    def record(normal, rhs):
        z, degenerate = solve(normal, rhs)
        seen.append((normal, rhs, z))
        return z, degenerate

    smoothpen._solve_normal_equations = record
    try:
        est = estimate_multipliers_soc(problem, x)
    finally:
        smoothpen._solve_normal_equations = solve
    if not seen:
        return est, 0.0, math.inf
    normal, rhs, z = seen[0]
    residual = float(np.linalg.norm(2.0 * (normal @ z + rhs)))
    return est, residual, float(eig_sym(normal).values[0])
