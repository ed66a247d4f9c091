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
    # F calls made by the starts' local solves (the Sobol screening not counted).
    nfev: int
    # Starts whose local solve stopped at the iteration budget, not at the tolerances.
    n_local_failures: int


def _box(lower, upper):
    """lower and upper as float arrays; ValueError unless the box is finite
    with lower <= upper."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all() and (lower <= upper).all()):
        raise ValueError("the solver needs a finite box with lower <= upper")
    return lower, upper


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
    """One bounded Nelder-Mead run from ``start``: (x, value, F calls, whether
    the budget of iters_per_dim iterations per coordinate ran out).

    Every step is the arithmetic of scipy's ``minimize(method="Nelder-Mead",
    bounds=...)`` (scipy 1.17.1, non-adaptive), done on plain floats, so each
    iterate and each F call is the same bit for bit.  Its coefficients are
    fixed: reflection 1, expansion 2, contraction 0.5, shrink 0.5, and an
    initial step of 5 % of each coordinate (0.00025 where it is 0).
    """
    box = list(zip(lower.tolist(), upper.tolist()))
    n = len(box)
    nfev = 0

    # np.clip bit for bit, signed zeros included.  scipy's bounds of one
    # coordinate have stride 0, and numpy's loop for scalar bounds keeps the
    # point rather than the bound on a tie of signed zeros.
    if n == 1:
        (lo1, hi1), = box
        clip = lambda p: [min(max(p[0], lo1), hi1)]
    else:
        clip = lambda p: [min(hi, max(lo, v)) for v, (lo, hi) in zip(p, box)]

    def value(p):  # F of a fresh array, as a float (a size-1 result is accepted)
        nonlocal nfev
        nfev += 1
        fx = func(np.array(p))
        return float(fx if isinstance(fx, float) else np.asarray(fx).item())

    def ordered():  # numpy's argsort puts NaN last and keeps scipy's order of ties
        idx = np.array(fs).argsort().tolist()
        return [sim[i] for i in idx], [fs[i] for i in idx]

    x0 = clip(start.tolist())
    sim = [x0]
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    # A step past an upper bound is reflected into the box.
    sim = [clip([2 * hi - v if v > hi else v for v, (_, hi) in zip(p, box)]) for p in sim]
    fs = [value(p) for p in sim]
    sim, fs = ordered()
    sim, fs = ordered()  # scipy sorts twice here; argsort is not stable on 4 or more values
    maxiter = iters_per_dim * n
    it = 1
    while it < maxiter:
        s0, w = sim[0], sim[-1]
        if (all(abs(v - u) <= xatol for p in sim[1:] for v, u in zip(p, s0))
                and all(abs(fs[0] - f) <= fatol for f in fs[1:])):
            break
        xbar = [0.0] * n  # np.add.reduce starts from +0.0
        for p in sim[:-1]:
            xbar = [a + v for a, v in zip(xbar, p)]
        xbar = [a / n for a in xbar]
        xr = clip([2 * a - v for a, v in zip(xbar, w)])
        fxr = value(xr)
        if fxr < fs[0]:
            xe = clip([3 * a - 2 * v for a, v in zip(xbar, w)])
            fxe = value(xe)
            sim[-1], fs[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fs[-2]:
            sim[-1], fs[-1] = xr, fxr
        else:
            if fxr < fs[-1]:
                xc = clip([1.5 * a - 0.5 * v for a, v in zip(xbar, w)])
                fxc = value(xc)
                shrink = not fxc <= fxr
            else:
                xc = clip([0.5 * a + 0.5 * v for a, v in zip(xbar, w)])
                fxc = value(xc)
                shrink = not fxc < fs[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = clip([a + 0.5 * (v - a) for a, v in zip(s0, sim[j])])
                    fs[j] = value(sim[j])
            else:
                sim[-1], fs[-1] = xc, fxc
        it += 1
        sim, fs = ordered()
    return np.array(sim[0]), float(np.array(fs).min()), nfev, it >= maxiter


def minimize(
    func: Callable[[np.ndarray], float],
    lower,
    upper,
    cfg: SolverConfig = SolverConfig(),
) -> MinimizeResult:
    """Multistart local minimization over a finite box with lower <= upper
    (ValueError before any start is drawn otherwise); returns the best result."""
    lower, upper = _box(lower, upper)
    starts = _finite_starts(func, lower, upper, cfg)
    if not starts:
        raise AllStartsFailed("objective is non-finite at every sampled start")
    best_x = None
    best_f = math.inf
    values = []
    nfev = failures = 0
    for start in starts:
        x, f_val, calls, hit_cap = _nelder_mead(func, start, lower, upper, ITERS_PER_DIM,
                                                START_XATOL, START_FATOL)
        values.append(f_val)
        nfev += calls
        failures += hit_cap
        if f_val < best_f:
            best_f = f_val
            best_x = x
    if best_x is None or not math.isfinite(best_f):
        raise AllStartsFailed("no start produced a finite minimum")
    agreeing = sum(1 for v in values if v <= best_f + AGREE_RTOL * (1.0 + abs(best_f)))
    return MinimizeResult(x=best_x, value=best_f, n_starts_used=len(starts),
                          n_starts_agreeing=agreeing, nfev=nfev, n_local_failures=failures)


def polish(func, x0, lower, upper) -> Tuple[np.ndarray, float]:
    """Re-run Nelder-Mead from a known good point with POLISH_ITERS_FACTOR
    times the iteration budget of a start, to the polish tolerances.  The
    box is checked as in ``minimize``, and x0 against it, before F is called."""
    lower, upper = _box(lower, upper)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != lower.shape:
        raise ValueError(f"polish needs x0 of shape {lower.shape}, got {x0.shape}")
    x, value, _, _ = _nelder_mead(func, x0, lower, upper, POLISH_ITERS_FACTOR * ITERS_PER_DIM,
                                  POLISH_XATOL, POLISH_FATOL)
    return x, value
