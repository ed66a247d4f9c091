"""Box-constrained multistart minimization used by the exactness harness.

One local method, Nelder-Mead, which handles the kinks and +inf
sentinels of penalty functions.  Starts come from a scrambled Sobol
sequence, so results are bit-reproducible for a fixed seed on one
machine.  The simplex is ordered by numpy's default argsort, as in
scipy, which is not stable on 4 or more values: on a problem of 3 or
more coordinates, tied F values may order differently on another CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from math import isnan
from operator import add
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


def _argsort(fs: list) -> list:
    """``np.array(fs).argsort().tolist()``, the order scipy gives the simplex:
    NaN last, and ties in scipy's order.  On at most 3 values without NaN
    that is the stable order, which ``sorted`` gives on floats; on 4 or more
    numpy's sort need not be stable, so numpy is asked."""
    if len(fs) <= 3 and not any(map(isnan, fs)):
        return sorted(range(len(fs)), key=fs.__getitem__)
    return np.array(fs).argsort().tolist()


def _box_steps(lows: list, highs: list):
    """The point maps of bounded Nelder-Mead on float lists, for the box
    [lows, highs]: the plain clip, then reflection, expansion, outside and
    inside contraction of the worst vertex v through the centroid a, and the
    shrink of a vertex v toward the best one a.

    Each map builds its point with scipy's expression and clips it in the
    same pass, with np.clip's bits: a NaN fails every test and is kept, and
    on a tie of signed zeros the bound wins.  scipy's bounds of one
    coordinate have stride 0, and numpy's loop for scalar bounds keeps the
    point instead (``keep``).
    """
    keep = len(lows) == 1

    def clip(p):
        return [hi if (hi < m if keep else hi <= m) else m for t, lo, hi in zip(p, lows, highs)
                for m in (lo if (lo > t if keep else lo >= t) else t,)]

    def reflect(xbar, w):
        return [hi if (hi < m if keep else hi <= m) else m
                for a, v, lo, hi in zip(xbar, w, lows, highs)
                for t in (2 * a - v,) for m in (lo if (lo > t if keep else lo >= t) else t,)]

    def expand(xbar, w):
        return [hi if (hi < m if keep else hi <= m) else m
                for a, v, lo, hi in zip(xbar, w, lows, highs)
                for t in (3 * a - 2 * v,) for m in (lo if (lo > t if keep else lo >= t) else t,)]

    def contract_out(xbar, w):
        return [hi if (hi < m if keep else hi <= m) else m
                for a, v, lo, hi in zip(xbar, w, lows, highs)
                for t in (1.5 * a - 0.5 * v,) for m in (lo if (lo > t if keep else lo >= t) else t,)]

    def contract_in(xbar, w):
        return [hi if (hi < m if keep else hi <= m) else m
                for a, v, lo, hi in zip(xbar, w, lows, highs)
                for t in (0.5 * a + 0.5 * v,) for m in (lo if (lo > t if keep else lo >= t) else t,)]

    def shrink(best, p):
        return [hi if (hi < m if keep else hi <= m) else m
                for a, v, lo, hi in zip(best, p, lows, highs)
                for t in (a + 0.5 * (v - a),) for m in (lo if (lo > t if keep else lo >= t) else t,)]

    return clip, reflect, expand, contract_out, contract_in, shrink


def _nelder_mead(func, start, lower, upper, iters_per_dim: int, xatol: float, fatol: float):
    """One bounded Nelder-Mead run from ``start``: (x, value, F calls, whether
    the budget of iters_per_dim iterations per coordinate ran out).

    Every step is the arithmetic of scipy's ``minimize(method="Nelder-Mead",
    bounds=...)`` (scipy 1.17.1, non-adaptive), done on plain floats, so each
    iterate and each F call is the same bit for bit.  Its coefficients are
    fixed: reflection 1, expansion 2, contraction 0.5, shrink 0.5, and an
    initial step of 5 % of each coordinate (0.00025 where it is 0).
    """
    lows, highs = lower.tolist(), upper.tolist()
    n = len(lows)
    clip, reflect, expand, contract_out, contract_in, shrink_toward = _box_steps(lows, highs)
    nfev = 0

    def value(p):  # F of a fresh array, as a float (a size-1 result is accepted)
        nonlocal nfev
        nfev += 1
        fx = func(np.array(p))
        return float(fx if isinstance(fx, float) else np.asarray(fx).item())

    def ordered():
        idx = _argsort(fs)
        return [sim[i] for i in idx], [fs[i] for i in idx]

    x0 = clip(start.tolist())
    sim = [x0]
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    # A step past an upper bound is reflected into the box.
    sim = [clip([2 * hi - v if v > hi else v for v, hi in zip(p, highs)]) for p in sim]
    fs = [value(p) for p in sim]
    sim, fs = ordered()
    sim, fs = ordered()  # scipy sorts twice here; argsort is not stable on 4 or more values
    maxiter = iters_per_dim * n
    it = 1
    while it < maxiter:
        f0, s0, w = fs[0], sim[0], sim[-1]
        # Both tests are pure; the cheaper one goes first.
        if (all([abs(f0 - f) <= fatol for f in fs[1:]])
                and all([abs(v - u) <= xatol for p in sim[1:] for v, u in zip(p, s0)])):
            break
        # Left to right from +0.0, as np.add.reduce sums the vertices.
        xbar = [reduce(add, col, 0.0) / n for col in zip(*sim[:-1])]
        xr = reflect(xbar, w)
        fxr = value(xr)
        if fxr < f0:
            xe = expand(xbar, w)
            fxe = value(xe)
            sim[-1], fs[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fs[-2]:
            sim[-1], fs[-1] = xr, fxr
        else:
            if fxr < fs[-1]:
                xc = contract_out(xbar, w)
                fxc = value(xc)
                shrink = not fxc <= fxr
            else:
                xc = contract_in(xbar, w)
                fxc = value(xc)
                shrink = not fxc < fs[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = shrink_toward(s0, sim[j])
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
