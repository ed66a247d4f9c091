"""Classic separating functions: the linear penalty f + c*phi and the
nonlinear Q-penalty."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NegativeObjective, NonFiniteEvaluation
from .problems import ConstrainedProblem, feasibility_gap


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
    if math.isnan(f_val) or math.isnan(phi_val):
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


def qpen_eval(qf: QFunction, problem: ConstrainedProblem, phi, x, c: float) -> float:
    """F(x, c) = Q(f(x), c * phi(x)); requires the nonnegative-objective
    standing assumption of the nonlinear penalty theory.  A NaN phi raises
    NonFiniteEvaluation."""
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    f_val = problem.f(x)
    if f_val < -1e-12:
        raise NegativeObjective(
            f"f({np.asarray(x)}) = {f_val} < 0; qorder needs f >= 0 on the whole box"
        )
    phi_val = float(phi(x))
    if math.isnan(phi_val):
        raise NonFiniteEvaluation("NaN in q-order penalty evaluation")
    return qf(max(f_val, 0.0), c * phi_val)
