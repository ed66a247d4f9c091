"""Box-constrained multistart minimization used by the exactness harness.

One local method, Nelder-Mead, which handles the kinks and +inf
sentinels of penalty functions.  Starts come from a scrambled Sobol
sequence, so results are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy.optimize import Bounds, minimize as scipy_minimize
from scipy.stats import qmc

from .errors import AllStartsFailed

# The solver policy: every budget and tolerance of a local solve.  They are
# read at call time, so a test can monkeypatch them.
# Nelder-Mead iterations per coordinate of one multistart start.
ITERS_PER_DIM = 400
# polish refines one point with this multiple of that budget.
POLISH_ITERS_FACTOR = 4
# Nelder-Mead stops when the simplex spans less than its xatol and its
# values less than its fatol.  Starts stop at the coarse start pair; only
# the winner is refined to the tight polish pair.
START_XATOL = 1e-6
START_FATOL = 1e-8
POLISH_XATOL = 1e-9
POLISH_FATOL = 1e-11
# Sobol draws allowed per requested start while skipping points where F = +inf.
DRAWS_PER_START = 64
# A start agrees with the best when its value is within this relative tolerance.
AGREE_RTOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    n_starts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    value: float
    n_starts_used: int
    n_starts_agreeing: int


def _finite_starts(func, lower, upper, cfg: SolverConfig) -> list:
    """Draw Sobol starts, keeping only points where func is finite.

    Penalties with a barrier domain are +inf on much of the box, so we
    keep drawing (up to DRAWS_PER_START times the requested count) until
    enough usable starts are found.
    """
    dim = lower.shape[0]
    sampler = qmc.Sobol(d=dim, scramble=True, seed=cfg.seed)
    starts = []
    budget = DRAWS_PER_START * cfg.n_starts
    drawn = 0
    # Sobol balance wants power-of-two draws.
    batch_size = 1 << (cfg.n_starts - 1).bit_length()
    while len(starts) < cfg.n_starts and drawn < budget:
        batch = sampler.random(batch_size)
        drawn += batch_size
        for row in batch:
            pt = lower + row * (upper - lower)
            if math.isfinite(func(pt)):
                starts.append(pt)
                if len(starts) == cfg.n_starts:
                    break
    return starts


def _nelder_mead(func, start, lower, upper, iters_per_dim: int, xatol: float, fatol: float):
    res = scipy_minimize(
        func,
        start,
        method="Nelder-Mead",
        bounds=Bounds(lower, upper),
        options={"maxiter": iters_per_dim * start.shape[0], "xatol": xatol, "fatol": fatol},
    )
    return np.asarray(res.x, dtype=float), float(res.fun)


def minimize(
    func: Callable[[np.ndarray], float],
    lower,
    upper,
    cfg: SolverConfig = SolverConfig(),
) -> MinimizeResult:
    """Multistart local minimization over a finite box with lower <= upper
    (ValueError before any start is drawn otherwise); returns the best result."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all() and (lower <= upper).all()):
        raise ValueError("minimize needs a finite box with lower <= upper")
    starts = _finite_starts(func, lower, upper, cfg)
    if not starts:
        raise AllStartsFailed("objective is non-finite at every sampled start")
    best_x = None
    best_f = math.inf
    values = []
    for start in starts:
        x, f_val = _nelder_mead(func, start, lower, upper, ITERS_PER_DIM, START_XATOL, START_FATOL)
        values.append(f_val)
        if f_val < best_f:
            best_f = f_val
            best_x = x
    if best_x is None or not math.isfinite(best_f):
        raise AllStartsFailed("no start produced a finite minimum")
    agreeing = sum(1 for v in values if v <= best_f + AGREE_RTOL * (1.0 + abs(best_f)))
    return MinimizeResult(x=best_x, value=best_f, n_starts_used=len(starts), n_starts_agreeing=agreeing)


def polish(func, x0, lower, upper) -> Tuple[np.ndarray, float]:
    """Re-run Nelder-Mead from a known good point with POLISH_ITERS_FACTOR
    times the iteration budget of a start, to the polish tolerances."""
    return _nelder_mead(func, np.asarray(x0, dtype=float), np.asarray(lower, float),
                        np.asarray(upper, float), POLISH_ITERS_FACTOR * ITERS_PER_DIM,
                        POLISH_XATOL, POLISH_FATOL)
