"""Closed form of the conic augmented Lagrangian (the Rockafellar-Wets
augmented Lagrangian with sigma = (1/2)||p||^2)."""

from __future__ import annotations

import math

import numpy as np

from .cones import dist_lorentz, dist_psd_minus
from .errors import DimensionMismatch, NonFiniteEvaluation
from .problems import ConstrainedProblem, check_penalty_parameter


def hpr_closed_form(problem: ConstrainedProblem, x, lam=None, lam_sdp=None, mu=None,
                    c: float = 1.0) -> float:
    """Augmented Lagrangian of the cone program in closed form, with
    sigma = (1/2)||p||^2 (Shapiro and Sun, Math. Oper. Res. 29, 2004):

      f + sum_i (dist_Q(lam_i + c g_i)^2 - ||lam_i||^2) / 2c     (SOC blocks)
        + (dist_{-S+}(Lam + c G)^2 - ||Lam||_F^2) / 2c          (SDP block)
        + <mu, h> + (c/2)||h||^2                                (equalities)

    The multipliers follow ``kkt_residual``: ``lam`` holds one vector per
    SOC block, ``lam_sdp`` the matrix and ``mu`` the equalities' vector,
    arrays or lists; a missing one is zero.  On a flat block (-u(x), 0)
    with lam_i = (-l, 0) an SOC term is the classic ([l + c u]_+^2 - l^2) / 2c.
    A NaN value raises NonFiniteEvaluation; a multiplier of the wrong count
    or shape raises DimensionMismatch.
    """
    check_penalty_parameter(c)
    if lam is not None and len(lam) != len(problem.soc_blocks):
        raise DimensionMismatch("one multiplier vector per SOC block required")
    x = np.asarray(x, dtype=float)
    value = problem.f(x)
    for i, block in enumerate(problem.soc_blocks):
        lam_i = np.zeros(block.dim) if lam is None else np.asarray(lam[i], dtype=float)
        if lam_i.shape != (block.dim,):
            raise DimensionMismatch("SOC multiplier dimension mismatch")
        # lam_i + c g_i entry by entry, as numpy adds them.
        d = dist_lorentz([l + c * v for l, v in zip(lam_i.tolist(), block.values(x))])
        value += (d * d - float(lam_i @ lam_i)) / (2.0 * c)
    if problem.sdp_block is not None:
        order = problem.sdp_block.order
        lam_m = np.zeros((order, order)) if lam_sdp is None else np.asarray(lam_sdp, dtype=float)
        if lam_m.shape != (order, order):
            raise DimensionMismatch("SDP multiplier dimension mismatch")
        d = dist_psd_minus(lam_m + c * np.asarray(problem.sdp_block.G(x), dtype=float))
        value += (d * d - float(np.sum(lam_m * lam_m))) / (2.0 * c)
    if problem.n_eq > 0:
        mu = np.zeros(problem.n_eq) if mu is None else np.atleast_1d(np.asarray(mu, float))
        if mu.shape != (problem.n_eq,):
            raise DimensionMismatch("mu dimension mismatch")
        h_val = problem.h(x)
        value += float(mu @ h_val) + 0.5 * c * float(h_val @ h_val)
    value = float(value)
    if math.isnan(value):
        raise NonFiniteEvaluation("NaN in augmented Lagrangian evaluation")
    return value
