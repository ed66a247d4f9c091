"""Classic separating functions: the linear penalty f + c*phi and the
nonlinear Q-penalty, plus the error-bound and local-exactness checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NegativeObjective, NoFeasibleDistanceOracle, NonFiniteEvaluation
from .problems import ConstrainedProblem, feasibility_gap

# Checker policy: the fixed sampling of the paper-condition checkers.
# check_strict_monotone samples Q on this many points per axis of [0, 5]^2.
MONOTONE_GRID = 20
# check_q_local_condition tests this many t values in [0, t0).
Q_LOCAL_GRID = 200


def default_phi(problem: ConstrainedProblem) -> Callable:
    """Infeasibility measure: total feasibility gap (zero iff feasible)."""

    def phi(x):
        return feasibility_gap(problem, x).total

    return phi


def linear_eval(problem: ConstrainedProblem, phi, x, c: float) -> float:
    """F(x, c) = f(x) + c * phi(x)."""
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    f_val = problem.f(x)
    phi_val = float(phi(x))
    if np.isnan(f_val) or np.isnan(phi_val):
        raise NonFiniteEvaluation("NaN in linear penalty evaluation")
    return f_val + c * phi_val


@dataclass(frozen=True)
class QFunction:
    """Aggregator Q(t, s) on [0, inf]^2, strictly monotone on finite points.

    ``q_order(q)`` builds the q-th order instance ((t^q + s^q)^(1/q)).
    """

    func: Callable[[float, float], float]

    @staticmethod
    def q_order(q: float) -> "QFunction":
        if q <= 0:
            raise ValueError("q must be positive")

        def evaluate(t: float, s: float) -> float:
            if math.isinf(t) or math.isinf(s):
                return math.inf
            return (t ** q + s ** q) ** (1.0 / q)

        return QFunction(func=evaluate)

    def __call__(self, t: float, s: float) -> float:
        if t < 0 or s < 0:
            raise ValueError("Q is defined on nonnegative arguments")
        return float(self.func(t, s))

    def check_strict_monotone(self) -> bool:
        """Sampled strict monotonicity on a ``MONOTONE_GRID``-square grid of [0, 5]^2."""
        axis = np.linspace(0.0, 5.0, MONOTONE_GRID)
        vals = np.array([[self(t, s) for s in axis] for t in axis])
        along_t = np.diff(vals, axis=0)
        along_s = np.diff(vals, axis=1)
        return bool(np.all(along_t > 0) and np.all(along_s > 0))


def qpen_eval(qf: QFunction, problem: ConstrainedProblem, phi, x, c: float) -> float:
    """F(x, c) = Q(f(x), c * phi(x)); requires the nonnegative-objective
    standing assumption of the nonlinear penalty theory."""
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    f_val = problem.f(x)
    if f_val < -1e-12:
        raise NegativeObjective(
            f"f({np.asarray(x)}) = {f_val} < 0; wrap the objective with exp_transform first"
        )
    phi_val = float(phi(x))
    return qf(max(f_val, 0.0), c * phi_val)


def exp_transform(problem: ConstrainedProblem) -> Callable:
    """Objective wrapper exp(f(x)), making any objective nonnegative."""

    def wrapped(x):
        return math.exp(problem.f(x))

    return wrapped


@dataclass(frozen=True)
class ErrorBoundEstimate:
    tau: float
    sample_count: int


def estimate_error_bound(
    problem: ConstrainedProblem,
    phi,
    x_center,
    radius: float,
    alpha: float,
    n_samples: int,
) -> ErrorBoundEstimate:
    """Empirical error-bound modulus: the minimum of phi(x)/dist(x, Omega)^alpha
    over uniform samples in B(x_center, radius) intersected with the box.

    The true modulus is the infimum over the whole region, so a minimum
    over samples can only overestimate it: the estimate is never below
    the true modulus.  +inf signals that no infeasible sample was drawn.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if problem.project_feasible is None:
        raise NoFeasibleDistanceOracle(f"{problem.name} has no Omega-projection oracle")
    x_center = np.asarray(x_center, dtype=float)
    rng = np.random.default_rng(0)
    lo, hi = problem.box()
    tau = math.inf
    used = 0
    for _ in range(n_samples):
        step = rng.uniform(-radius, radius, size=problem.dim)
        x = np.clip(x_center + step, lo, hi)
        dist = problem.dist_omega(x)
        if dist <= 1e-9:
            continue
        used += 1
        tau = min(tau, float(phi(x)) / dist ** alpha)
    return ErrorBoundEstimate(tau=tau, sample_count=used)


def check_q_local_condition(qf: QFunction, f_star_val: float, c0: float, t0: float) -> bool:
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
