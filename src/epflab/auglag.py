"""Closed form of the conic augmented Lagrangian (the Rockafellar-Wets
augmented Lagrangian with sigma = (1/2)||p||^2), in two stages as every
penalty: ``hpr_state(x)`` reads neither c nor the multipliers, which
``hpr_value`` applies; ``hpr_closed_form`` is the value of the state."""

from __future__ import annotations

import math

import numpy as np

from .cones import dist_lorentz, dist_psd_minus
from .errors import NonFiniteEvaluation
from .numerics import dot
from .problems import (ConstrainedProblem, as_point, check_penalty_parameter, checked_objective,
                       read_multipliers)


def hpr_multipliers(problem: ConstrainedProblem, lam=None, lam_sdp=None, mu=None) -> tuple:
    """As ``hpr_value`` reads them: (lam_i as a float list, ||lam_i||^2) per SOC
    block, (Lam, ||Lam||_F^2) or None, and mu as a float list, from the parts
    that ``problems.read_multipliers`` reads and checks."""
    lam, lam_sdp, mu = read_multipliers(problem, lam, lam_sdp, mu)
    sdp = None if lam_sdp is None else (lam_sdp, float(np.sum(lam_sdp * lam_sdp)))
    return [(lam_i.tolist(), float(lam_i @ lam_i)) for lam_i in lam], sdp, mu.tolist()


def hpr_state(problem: ConstrainedProblem, x) -> tuple:
    """(f, [g_i as float lists], G, h as a float list, h.h) at a point x (as
    ``as_point`` returns it), from one ``read_point``; G and h are None where
    absent.  A NaN f raises NonFiniteEvaluation."""
    f_val, g_vals, entries, h_val, _ = problem.read_point(x)
    f_val = checked_objective(f_val, x)
    g_mat = None
    if entries is not None:
        g_mat = np.array(entries).reshape(problem.sdp_block.order, -1)
    if problem.n_eq == 0:
        h_val = None
    return f_val, g_vals, g_mat, h_val, 0.0 if h_val is None else dot(h_val, h_val)


def hpr_value(multipliers: tuple, state: tuple, c: float) -> float:
    """F at c from ``hpr_multipliers`` and ``hpr_state``: the SOC terms, the
    SDP term, then the equality term; a NaN value raises NonFiniteEvaluation."""
    soc, sdp, mu = multipliers
    value, g_vals, g_mat, h_val, h_sq = state
    for (lam_i, lam_sq), g_i in zip(soc, g_vals):
        # lam_i + c g_i entry by entry, as numpy adds them (a loop: a
        # comprehension costs a function call).
        shifted = []
        for l, v in zip(lam_i, g_i):
            shifted.append(l + c * v)
        d = dist_lorentz(shifted)
        value += (d * d - lam_sq) / (2.0 * c)
    if sdp is not None:
        d = dist_psd_minus(sdp[0] + c * g_mat)
        value += (d * d - sdp[1]) / (2.0 * c)
    if h_val is not None:
        value += dot(mu, h_val) + 0.5 * c * h_sq
    if math.isnan(value):
        raise NonFiniteEvaluation("NaN in augmented Lagrangian evaluation")
    return float(value)


def hpr_closed_form(problem: ConstrainedProblem, x, lam=None, lam_sdp=None, mu=None,
                    c: float = 1.0) -> float:
    """Augmented Lagrangian of the cone program in closed form, with
    sigma = (1/2)||p||^2 (Shapiro and Sun, Math. Oper. Res. 29, 2004):

      f + sum_i (dist_Q(lam_i + c g_i)^2 - ||lam_i||^2) / 2c     (SOC blocks)
        + (dist_{-S+}(Lam + c G)^2 - ||Lam||_F^2) / 2c          (SDP block)
        + <mu, h> + (c/2)||h||^2                                (equalities)

    The multipliers are read by ``problems.read_multipliers``: ``lam`` holds
    one vector per SOC block, ``lam_sdp`` the symmetric matrix and ``mu`` the
    equalities' vector, arrays or lists; a missing one is zero.  On a flat
    block (-u(x), 0) with lam_i = (-l, 0) an SOC term is the classic
    ([l + c u]_+^2 - l^2) / 2c.  A NaN value raises NonFiniteEvaluation; a
    multiplier of the wrong count or shape, or an x of another shape than
    (dim,), raises DimensionMismatch, and a non-symmetric Lam ValueError,
    before anything is evaluated.
    """
    check_penalty_parameter(c)
    multipliers = hpr_multipliers(problem, lam, lam_sdp, mu)
    return hpr_value(multipliers, hpr_state(problem, as_point(problem, x)), c)
