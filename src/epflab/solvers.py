"""Box-constrained multistart minimization used by the exactness harness.

One local method, Nelder-Mead, which handles the kinks and +inf
sentinels of penalty functions.  Starts come from a scrambled Sobol
sequence, drawn once per (dim, seed), so results are bit-reproducible
for a fixed seed on one machine.  The simplex is kept in the order of
numpy's default argsort, as in scipy, which is not stable on 4 or more
values: on a problem of 3 or more coordinates, tied F values may order
differently on another CPU.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, index
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
        try:  # an integer of any type (np.int64, say) is stored as int
            object.__setattr__(self, "n_starts", index(self.n_starts))
            object.__setattr__(self, "seed", index(self.seed))
        except TypeError:
            raise ValueError("n_starts and seed must be integers") from None
        if self.n_starts < 1 or self.seed < 0:
            raise ValueError("n_starts must be >= 1 and seed >= 0")


@dataclass(frozen=True)
class MinimizeResult:
    """The best point of a multistart run.  ``n_starts_used`` counts the
    starts whose local solve ran (fewer than the finite Sobol starts only
    where ``stop_below`` ended the run), and ``n_starts_agreeing`` is
    counted among them."""

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


@lru_cache(maxsize=16)
def _sobol_draws(dim: int, seed: int, size: int) -> tuple:
    """``qmc.Sobol(d=dim, scramble=True, seed=seed)`` and the read-only
    batches of ``size`` points it has drawn so far.  Every minimize of a task
    draws the same starts, so a key's sampler is built once and extended
    when a run needs one more batch."""
    return qmc.Sobol(d=dim, scramble=True, seed=seed), []


def _finite_starts(func, lower, upper, cfg: SolverConfig) -> list:
    """Draw Sobol starts, keeping only points where func is finite.

    Penalties with a barrier domain are +inf on much of the box, so we
    keep drawing (up to DRAWS_PER_START times the requested count) until
    enough usable starts are found.
    """
    starts = []
    # Sobol balance wants power-of-two draws.
    batch_size = 1 << (cfg.n_starts - 1).bit_length()
    sampler, batches = _sobol_draws(lower.shape[0], cfg.seed, batch_size)
    for k in range(-(-DRAWS_PER_START * cfg.n_starts // batch_size)):  # batches in the budget
        if k == len(batches):
            batches.append(sampler.random(batch_size))
            batches[k].flags.writeable = False
        for row in batches[k]:
            pt = lower + row * (upper - lower)
            if math.isfinite(func(pt)):
                starts.append(pt)
                if len(starts) == cfg.n_starts:
                    return starts
    return starts


def _argsort(fs: list) -> list:
    """The order scipy gives the simplex: numpy's argsort of its values, NaN
    last.  On at most 3 values that is the stable order, which the loop's
    insertion keeps; on 4 or more numpy's sort need not be stable."""
    return np.array(fs).argsort().tolist()


def _ordered(sim: list, fs: list):
    """The simplex and its values in ``_argsort`` order."""
    idx = _argsort(fs)
    return [sim[i] for i in idx], [fs[i] for i in idx]


def _box_steps(lows: list, highs: list):
    """The point maps of bounded Nelder-Mead on float lists, for the box
    [lows, highs]: the plain clip, then reflection, expansion, outside and
    inside contraction of the worst vertex v through the centroid a, and the
    shrink of a vertex v toward the best one a.

    Reflection, expansion and the two contractions are scipy's
    ca * a - cv * v for (ca, cv) = (2, 1), (3, 2), (1.5, 0.5) and
    (0.5, -0.5), the last being 0.5 * a + 0.5 * v exactly.  Each map builds
    its point and clips it in the same pass, with np.clip's bits: a NaN
    fails every test and is kept, and on a tie of signed zeros the bound
    wins.  scipy's bounds of one coordinate have stride 0, and numpy's loop
    for scalar bounds keeps the point instead (``keep``).
    """
    keep = len(lows) == 1

    def clip(p):
        return [hi if (hi < m if keep else hi <= m) else m for t, lo, hi in zip(p, lows, highs)
                for m in (lo if (lo > t if keep else lo >= t) else t,)]

    def step(ca, cv):
        return lambda xbar, w: [hi if (hi < m if keep else hi <= m) else m
                                for a, v, lo, hi in zip(xbar, w, lows, highs)
                                for t in (ca * a - cv * v,)
                                for m in (lo if (lo > t if keep else lo >= t) else t,)]

    def shrink(best, p):
        return [hi if (hi < m if keep else hi <= m) else m
                for a, v, lo, hi in zip(best, p, lows, highs)
                for t in (a + 0.5 * (v - a),) for m in (lo if (lo > t if keep else lo >= t) else t,)]

    return clip, step(2.0, 1.0), step(3.0, 2.0), step(1.5, 0.5), step(0.5, -0.5), shrink


def _as_float(fx) -> float:
    """F's value as a float; a size-1 result is accepted."""
    return fx if type(fx) is float else float(fx if isinstance(fx, float) else np.asarray(fx).item())


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
    x0 = clip(start.tolist())
    sim = [x0]
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    # A step past an upper bound is reflected into the box.
    sim = [clip([2 * hi - v if v > hi else v for v, hi in zip(p, highs)]) for p in sim]
    fs = [_as_float(func(np.array(p))) for p in sim]
    nfev = n + 1
    # scipy sorts twice here; argsort is not stable on 4 or more values.
    sim, fs = _ordered(*_ordered(sim, fs))
    # On at most 3 vertices the order is stable: the new vertex of a step
    # goes after the best ones it ties (bisect_right), and a NaN last, unless
    # a NaN is among them.
    insert = n <= 2
    maxiter = iters_per_dim * n
    it = 1
    while it < maxiter:
        f0, s0, w = fs[0], sim[0], sim[-1]
        # fs is sorted with any NaN last, so fs[-1] is within fatol of f0
        # exactly when every value is; the cheaper test goes first.
        if abs(f0 - fs[-1]) <= fatol and all(abs(v - u) <= xatol
                                             for p in sim[1:] for v, u in zip(p, s0)):
            break
        it += 1
        # Left to right from +0.0, as np.add.reduce sums the vertices.
        xbar = [reduce(add, col, 0.0) / n for col in zip(*sim[:-1])]
        xr = reflect(xbar, w)
        fxr = _as_float(func(np.array(xr)))
        nfev += 1
        if fxr < f0:
            xe = expand(xbar, w)
            fxe = _as_float(func(np.array(xe)))
            nfev += 1
            xn, fn = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fs[-2]:
            xn, fn = xr, fxr
        else:
            inside = not fxr < fs[-1]
            xn = (contract_in if inside else contract_out)(xbar, w)
            fn = _as_float(func(np.array(xn)))
            nfev += 1
            if (not fn < fs[-1]) if inside else (not fn <= fxr):
                for j in range(1, n + 1):
                    sim[j] = shrink_toward(s0, sim[j])
                    fs[j] = _as_float(func(np.array(sim[j])))
                nfev += n
                sim, fs = _ordered(sim, fs)
                continue
        if insert and fs[-2] == fs[-2]:
            k = bisect_right(fs, fn, 0, n)
            del sim[-1], fs[-1]
            sim.insert(k, xn)
            fs.insert(k, fn)
        else:
            sim[-1], fs[-1] = xn, fn
            sim, fs = _ordered(sim, fs)
    return np.array(sim[0]), float(np.array(fs).min()), nfev, it >= maxiter


def minimize(
    func: Callable[[np.ndarray], float],
    lower,
    upper,
    cfg: SolverConfig = SolverConfig(),
    stop_below: float = -math.inf,
) -> MinimizeResult:
    """Multistart local minimization over a finite box with lower <= upper
    (ValueError before any start is drawn otherwise); returns the best result.
    With the default ``stop_below`` of -inf every start runs; a larger one
    ends the run after the first start whose local minimum is at or below it."""
    stop = stop_below > -math.inf
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
        if stop and f_val <= stop_below:
            break
    if best_x is None or not math.isfinite(best_f):
        raise AllStartsFailed("no start produced a finite minimum")
    agreeing = sum(1 for v in values if v <= best_f + AGREE_RTOL * (1.0 + abs(best_f)))
    return MinimizeResult(x=best_x, value=best_f, n_starts_used=len(values),
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
