"""Classic separating functions: the linear penalty f + c*phi and the
nonlinear Q-penalty.

Each is split in two stages: ``*_state(x)`` returns what does not read c
(f and phi, the feasibility gap) as a pair of floats, and
``*_value(state, c)`` finishes F from it; the one-shot ``*_eval`` takes
any phi and finishes F from f(x) and phi(x) as the state does."""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Tuple

import numpy as np

from .errors import NegativeObjective, NonFiniteEvaluation
from .problems import (ConstrainedProblem, check_penalty_parameter, checked_objective, gap_terms,
                       infeasibility)


def default_phi(problem: ConstrainedProblem) -> Callable:
    """Infeasibility measure: total feasibility gap (zero iff feasible)."""
    return partial(infeasibility, problem)


def _checked_phi(phi_val: float, kind: str) -> float:
    """phi; NonFiniteEvaluation if it is NaN."""
    if math.isnan(phi_val):
        raise NonFiniteEvaluation(f"NaN in {kind} penalty evaluation")
    return phi_val


def linear_state(problem: ConstrainedProblem, x) -> Tuple[float, float]:
    """(f(x), phi(x)) for phi the feasibility gap (``default_phi``), both
    from one ``read_point`` of x, a tuple of floats as
    ``problems.point_floats`` returns it.  A NaN f raises
    NonFiniteEvaluation before phi is formed, a NaN phi after."""
    point = problem.read_point(x)
    f_val = checked_objective(point[0], x)
    soc, eq, box = gap_terms(problem, point)
    return f_val, _checked_phi(soc + eq + box, "linear")


def linear_value(state: Tuple[float, float], c: float) -> float:
    """f + c * phi from ``linear_state``."""
    f_val, phi_val = state
    return f_val + c * phi_val


def linear_eval(problem: ConstrainedProblem, phi, x, c: float) -> float:
    """F(x, c) = f(x) + c * phi(x) for any infeasibility measure phi of x;
    with ``default_phi`` it has the bits of ``linear_state``'s F."""
    check_penalty_parameter(c)
    f_val = problem.f(x)
    return linear_value((f_val, _checked_phi(float(phi(x)), "linear")), c)


def q_order(q: float) -> Callable[[float, float], float]:
    """The q-th order aggregator Q(t, s) = (t^q + s^q)^(1/q) on [0, inf]^2,
    strictly monotone on finite points, 0 only at (0, 0) and +inf where t
    or s is; q must be positive and finite, and a negative argument raises
    ValueError.  Python floats and numpy scalars give the same value, a
    Python float; +inf only where that value is above the float range."""
    if not 0.0 < q < math.inf:
        raise ValueError("q must be positive and finite")

    def evaluate(t: float, s: float) -> float:
        if t < 0 or s < 0:
            raise ValueError("Q is defined on nonnegative arguments")
        if math.isinf(t) or math.isinf(s):
            return math.inf
        t, s = float(t), float(s)
        try:
            total = t ** q + s ** q
            value = total ** (1.0 / q)
        except OverflowError:
            return _scaled_q(t, s, q)
        # Finite t and s give +inf here only where the plain sum overflowed,
        # and a sum below the normal range has lost bits or underflowed to 0.
        if value == math.inf or (total < 2.0 ** -1022 and (t > 0.0 or s > 0.0)):
            return _scaled_q(t, s, q)
        return value

    return evaluate


def _scaled_q(t: float, s: float, q: float) -> float:
    """Q(t, s) where the plain sum overflows or is not a normal float:
    m ((t/m)^q + (s/m)^q)^(1/q) with m = max(t, s) > 0, whose sum is in
    [1, 2].  For q < 1 the plain form overflows only where Q is above the
    float range, and so may this one."""
    m = max(t, s)
    try:
        return m * ((t / m) ** q + (s / m) ** q) ** (1.0 / q)
    except OverflowError:
        return math.inf


def _positive_part(f_val: float, x) -> float:
    """max(f, 0); f < -1e-12 raises NegativeObjective."""
    if f_val < -1e-12:
        raise NegativeObjective(
            f"f({np.asarray(x)}) = {f_val} < 0; qorder needs f >= 0 on the whole box"
        )
    return max(f_val, 0.0)


def qpen_state(problem: ConstrainedProblem, x) -> Tuple[float, float]:
    """(max(f(x), 0), phi(x)) for phi the feasibility gap, from one
    ``read_point`` of x as ``linear_state``; f(x) < -1e-12 raises
    NegativeObjective and a NaN phi NonFiniteEvaluation."""
    point = problem.read_point(x)
    f_pos = _positive_part(checked_objective(point[0], x), x)
    soc, eq, box = gap_terms(problem, point)
    return f_pos, _checked_phi(soc + eq + box, "q-order")


def qpen_value(qf: Callable, state: Tuple[float, float], c: float) -> float:
    """Q(max(f, 0), c * phi) from ``qpen_state``."""
    f_pos, phi_val = state
    return qf(f_pos, c * phi_val)


def qpen_eval(qf: Callable, problem: ConstrainedProblem, phi, x, c: float) -> float:
    """F(x, c) = Q(f(x), c * phi(x)) for any infeasibility measure phi of x;
    requires the nonnegative-objective standing assumption of the nonlinear
    penalty theory.  A NaN phi raises NonFiniteEvaluation.  With
    ``default_phi`` it has the bits of ``qpen_state``'s F."""
    check_penalty_parameter(c)
    f_pos = _positive_part(problem.f(x), x)
    return qpen_value(qf, (f_pos, _checked_phi(float(phi(x)), "q-order")), c)
