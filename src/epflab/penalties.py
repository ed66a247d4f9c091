"""Classic separating functions: the linear penalty f + c*phi and the
nonlinear Q-penalty.

Each is split in two stages: ``*_state(x)`` returns what does not read c
(f and phi) as a pair of floats, and ``*_value(state, c)`` finishes F
from it; the one-shot ``*_eval`` is the value of the state."""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Tuple

import numpy as np

from .errors import NegativeObjective, NonFiniteEvaluation
from .problems import ConstrainedProblem, infeasibility


def default_phi(problem: ConstrainedProblem) -> Callable:
    """Infeasibility measure: total feasibility gap (zero iff feasible)."""
    return partial(infeasibility, problem)


def linear_state(problem: ConstrainedProblem, phi, x) -> Tuple[float, float]:
    """(f(x), phi(x)); a NaN phi raises NonFiniteEvaluation here, a NaN f
    inside ``ConstrainedProblem.f``."""
    f_val = problem.f(x)
    phi_val = float(phi(x))
    if math.isnan(phi_val):
        raise NonFiniteEvaluation("NaN in linear penalty evaluation")
    return f_val, phi_val


def linear_value(state: Tuple[float, float], c: float) -> float:
    """f + c * phi from ``linear_state``."""
    f_val, phi_val = state
    return f_val + c * phi_val


def linear_eval(problem: ConstrainedProblem, phi, x, c: float) -> float:
    """F(x, c) = f(x) + c * phi(x)."""
    if not 0.0 < c < math.inf:
        raise ValueError("penalty parameter c must be positive and finite")
    return linear_value(linear_state(problem, phi, x), c)


def q_order(q: float) -> Callable[[float, float], float]:
    """The q-th order aggregator Q(t, s) = (t^q + s^q)^(1/q) on [0, inf]^2,
    strictly monotone on finite points and +inf where t or s is; q must be
    positive and finite, and a negative argument raises ValueError."""
    if not 0.0 < q < math.inf:
        raise ValueError("q must be positive and finite")

    def evaluate(t: float, s: float) -> float:
        if t < 0 or s < 0:
            raise ValueError("Q is defined on nonnegative arguments")
        if math.isinf(t) or math.isinf(s):
            return math.inf
        return float((t ** q + s ** q) ** (1.0 / q))

    return evaluate


def qpen_state(problem: ConstrainedProblem, phi, x) -> Tuple[float, float]:
    """(max(f(x), 0), phi(x)); f(x) < -1e-12 raises NegativeObjective and a
    NaN phi NonFiniteEvaluation."""
    f_val = problem.f(x)
    if f_val < -1e-12:
        raise NegativeObjective(
            f"f({np.asarray(x)}) = {f_val} < 0; qorder needs f >= 0 on the whole box"
        )
    phi_val = float(phi(x))
    if math.isnan(phi_val):
        raise NonFiniteEvaluation("NaN in q-order penalty evaluation")
    return max(f_val, 0.0), phi_val


def qpen_value(qf: Callable, state: Tuple[float, float], c: float) -> float:
    """Q(max(f, 0), c * phi) from ``qpen_state``."""
    f_pos, phi_val = state
    return qf(f_pos, c * phi_val)


def qpen_eval(qf: Callable, problem: ConstrainedProblem, phi, x, c: float) -> float:
    """F(x, c) = Q(f(x), c * phi(x)); requires the nonnegative-objective
    standing assumption of the nonlinear penalty theory.  A NaN phi raises
    NonFiniteEvaluation."""
    if not 0.0 < c < math.inf:
        raise ValueError("penalty parameter c must be positive and finite")
    return qpen_value(qf, qpen_state(problem, phi, x), c)
