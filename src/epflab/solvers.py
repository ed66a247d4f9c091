"""Box-constrained multistart minimization used by the exactness harness.

Two local methods: Nelder-Mead (default, handles the kinks and +inf
sentinels of penalty functions) and projected gradient descent with
backtracking.  Starts come from a scrambled Sobol sequence, so results
are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Tuple

import numpy as np
from scipy.optimize import Bounds, minimize as scipy_minimize
from scipy.stats import qmc

from .errors import AllStartsFailed
from .problems import fd_gradient


@dataclass(frozen=True)
class SolverConfig:
    method: str = "nelder-mead"
    max_iters: int = 400
    x_tol: float = 1e-9
    f_tol: float = 1e-11
    n_starts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("nelder-mead", "gradient-descent-backtracking"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.x_tol <= 0 or self.f_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    value: float
    n_starts_used: int
    n_starts_agreeing: int


def _finite_starts(func, lower, upper, cfg: SolverConfig) -> list:
    """Draw Sobol starts, keeping only points where func is finite.

    Penalties with a barrier domain are +inf on much of the box, so we
    keep drawing (up to 64x the requested count) until enough usable
    starts are found.
    """
    dim = lower.shape[0]
    sampler = qmc.Sobol(d=dim, scramble=True, seed=cfg.seed)
    starts = []
    budget = 64 * cfg.n_starts
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


def _local_nelder_mead(func, start, lower, upper, cfg: SolverConfig):
    res = scipy_minimize(
        func,
        start,
        method="Nelder-Mead",
        bounds=Bounds(lower, upper),
        options={
            "maxiter": cfg.max_iters * start.shape[0],
            "xatol": cfg.x_tol,
            "fatol": cfg.f_tol,
        },
    )
    return np.asarray(res.x, dtype=float), float(res.fun)


def _local_gradient_descent(func, start, lower, upper, cfg: SolverConfig):
    x = np.clip(start, lower, upper)
    f_val = func(x)
    for _ in range(cfg.max_iters):
        try:
            grad = fd_gradient(func, x, step=1e-7 * (1.0 + float(np.linalg.norm(x))))
        except Exception:
            break
        g_norm = float(np.linalg.norm(grad))
        if g_norm <= 1e-12:
            break
        step = 1.0
        moved = False
        while step > 1e-14:
            trial = np.clip(x - step * grad, lower, upper)
            f_trial = func(trial)
            if math.isfinite(f_trial) and f_trial <= f_val - 1e-4 * step * g_norm ** 2:
                x, f_val = trial, f_trial
                moved = True
                break
            step *= 0.5
        if not moved:
            break
        if step * g_norm < cfg.x_tol:
            break
    return x, float(f_val)


def _local_method(cfg: SolverConfig):
    return _local_nelder_mead if cfg.method == "nelder-mead" else _local_gradient_descent


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
    local = _local_method(cfg)
    best_x = None
    best_f = math.inf
    values = []
    for start in starts:
        x, f_val = local(func, start, lower, upper, cfg)
        values.append(f_val)
        if f_val < best_f:
            best_f = f_val
            best_x = x
    if best_x is None or not math.isfinite(best_f):
        raise AllStartsFailed("no start produced a finite minimum")
    agreeing = sum(1 for v in values if v <= best_f + 1e-6 * (1.0 + abs(best_f)))
    return MinimizeResult(x=best_x, value=best_f, n_starts_used=len(starts), n_starts_agreeing=agreeing)


def polish(func, x0, lower, upper, cfg: SolverConfig) -> Tuple[np.ndarray, float]:
    """Re-run the local method from a known good point with a tight budget."""
    local_cfg = replace(cfg, max_iters=4 * cfg.max_iters)
    return _local_method(cfg)(func, np.asarray(x0, dtype=float), np.asarray(lower, float),
                              np.asarray(upper, float), local_cfg)
