"""Empirical exactness harness: penalty factory, one solve-at-c kernel
behind c-sweeps, least-exact-penalty-parameter estimation, and the
localization probes.

The probes turn the localization-principle conditions (penalty-type
behavior, non-degeneracy, local exactness, sublevel boundedness) into
sampling-based verdicts on certified benchmark problems; they are
evidence, not proof.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .auglag import hpr_multipliers, hpr_state, hpr_value
from .errors import AllStartsFailed, NonMonotonePredicate, UnknownProblem
from .penalties import linear_state, linear_value, q_order, qpen_state, qpen_value
from .numerics import norm
from .problems import (ConstrainedProblem, KnownSolution, as_point, check_penalty_parameter,
                       feasibility_gap, flat_multipliers, split_multipliers)
from .smoothpen import (KAPPA_SDP, KAPPA_SOC, EstimatorConfig, c1_state, c1_value, check_barrier,
                        check_cone, constant_normal_data)
from .solvers import SolverConfig, minimize, polish


_MISSING = object()
_FLOAT64 = np.dtype(np.float64)


class PenaltyHandle:
    """F(x, c) = value(state(x), c) bound to one problem; state(x) is all of
    F that does not read c, and floor(c) a beta(c) >= 0 with F(x, c) >= f(x)
    - beta(c) everywhere, or None.  A call keeps the states by the bytes of x,
    those met at the current c and at the c before it: a new c drops the older
    set, and a state found there is copied into the current one.  A bad c
    (ValueError) or an x of another shape than (dim,) (DimensionMismatch)
    raises before anything is evaluated; a state that raises is not stored."""

    __slots__ = ("problem", "state", "value", "params", "floor", "_shape", "_c", "_current",
                 "_previous")

    def __init__(self, problem: ConstrainedProblem, state: Callable, value: Callable, params: Dict,
                 floor: Optional[Callable[[float], float]] = None):
        self.problem, self.state, self.value, self.params = problem, state, value, params
        self.floor = floor
        self._shape, self._c, self._current, self._previous = (problem.dim,), None, {}, {}

    def __call__(self, x, c: float) -> float:
        if c != self._c:  # a bad c is never kept, so it is checked at every call
            check_penalty_parameter(c)
            self._c, self._current, self._previous = c, {}, self._current
        # The solver's x, a float64 array of shape (dim,), passes as it is.
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64 or x.shape != self._shape:
            x = as_point(self.problem, x)
        key = x.tobytes()
        found = self._current.get(key, _MISSING)
        if found is _MISSING:
            found = self._previous.get(key, _MISSING)
            if found is _MISSING:
                found = self.state(x)
            self._current[key] = found
        return self.value(found, c)


def _linear(problem):
    # F >= f, as c * phi >= 0
    return (lambda x: linear_state(problem, x), lambda s, c: linear_value(s, c), {}, lambda c: 0.0)


def _qorder(problem, q=1.0):
    qf = q_order(q)  # F >= f, as Q(t, s) >= t
    return (lambda x: qpen_state(problem, x), lambda s, c: qpen_value(qf, s, c), {"q": q},
            lambda c: 0.0)


def _c1(problem, sdp, alpha, kappa, zeta1, zeta2):
    check_cone(problem, sdp)
    cfg = EstimatorConfig(zeta1=zeta1, zeta2=zeta2)
    check_barrier(sdp, alpha, kappa)
    params = dict(alpha=alpha, kappa=kappa, zeta1=zeta1, zeta2=zeta2)
    data = constant_normal_data(problem)
    # F >= f - alpha / c, as p ||lambda||^2 < a <= alpha and q ||mu||^2 < b <= alpha.
    return (lambda x: c1_state(problem, x, alpha, kappa, cfg, data),
            lambda s, c: c1_value(problem, s, c), params, lambda c: alpha / c)


def _c1_socp(problem, alpha=1.0, kappa=KAPPA_SOC, zeta1=1.0, zeta2=1.0):
    return _c1(problem, False, alpha, kappa, zeta1, zeta2)


def _c1_sdp(problem, alpha=1.0, kappa=KAPPA_SDP, zeta1=1.0, zeta2=1.0):
    return _c1(problem, True, alpha, kappa, zeta1, zeta2)


def _al_hpr(problem, lam=None, mu=None):
    # lam is the flat cone layout of flat_multipliers; problems.read_multipliers checks its parts.
    cert = problem.certificate
    if lam is None:
        lam = flat_multipliers(problem, getattr(cert, "lambda_star", None),
                               getattr(cert, "lambda_sdp_star", None))
    if mu is None:
        mu = getattr(cert, "mu_star", None)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    mu = np.zeros(problem.n_eq) if mu is None else np.atleast_1d(np.asarray(mu, dtype=float))
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(mu))):
        raise ValueError("al-hpr multipliers must be finite")
    if mu.shape != (problem.n_eq,):
        raise ValueError(f"al-hpr needs {problem.n_eq} equality multiplier(s), got {mu.size}")
    multipliers = hpr_multipliers(problem, *split_multipliers(problem, lam), mu)
    params = {f"lambda_{i}": float(v) for i, v in enumerate(lam)}
    params.update({f"mu_{i}": float(v) for i, v in enumerate(mu)})
    # A cone term is at least -||lambda_i||^2 / 2c and <mu, h> + (c/2) h.h at least -||mu||^2 / 2c.
    norms_sq = float(lam @ lam + mu @ mu)
    return (lambda x: hpr_state(problem, x), lambda s, c: hpr_value(multipliers, s, c), params,
            lambda c: norms_sq / (2.0 * c))


# Penalty kind -> builder of F's state, value, reported parameters and floor
# (``PenaltyHandle``); its keyword parameters, with their defaults, are all the kind reads.
# F calls the stages through this module's globals, which a tracer may wrap.
_BUILDERS = {"linear": _linear, "qorder": _qorder, "c1-socp": _c1_socp, "c1-sdp": _c1_sdp,
             "al-hpr": _al_hpr}
PENALTY_KINDS = tuple(_BUILDERS)
# Penalty kind -> the names of the parameters it reads.
PENALTY_PARAMS = {kind: tuple(inspect.signature(build).parameters)[1:]
                  for kind, build in _BUILDERS.items()}


def make_penalty(problem: ConstrainedProblem, kind: str, **params) -> PenaltyHandle:
    """Build the requested separating function for a problem.

    ``params`` may set only what the kind reads (``PENALTY_PARAMS``);
    anything else raises ValueError before anything is built.  For
    ``al-hpr`` the tuning multipliers default to the certificate's, or to
    zero where it has none; ``lam`` takes the cone entries in the layout
    of ``problems.flat_multipliers`` and ``mu`` one entry per equality
    (ValueError on another count or a non-symmetric SDP multiplier).
    """
    if kind not in PENALTY_KINDS:
        raise UnknownProblem(f"unknown penalty kind {kind!r}")
    unread = [name for name in params if name not in PENALTY_PARAMS[kind]]
    if unread:
        reads = ", ".join(PENALTY_PARAMS[kind]) or "none"
        raise ValueError(f"penalty {kind!r} does not read {', '.join(unread)} (it reads {reads})")
    return PenaltyHandle(problem, *_BUILDERS[kind](problem, **params))


# The verdict policy: every threshold behind a reported c* or verdict.
# Distance-to-x* and |F - f*| tolerance of every pass judgement.
PASS_TOL = 1e-4
# estimate_c_star confirms its c* by one more solve at this multiple of it.
CONFIRM_FACTOR = 2.0
# How far below F(x*, c) (local probe) or f* (sublevel probe) a sample may lie.
PROBE_SLACK = 1e-9
# A probe sample x is settled, and F not called there, when f(x) - beta(c)
# clears the reference by this share of |f(x)| + beta(c), above F's rounding.
SETTLE_RTOL = 1e-12
# Local probe: this many samples of the ball of this radius around x*.
LOCAL_SAMPLES = 200
LOCAL_RADIUS = 0.5
# Sublevel probe: samples of the box scaled by this factor about its center.
SUBLEVEL_EXPANSION = 2.0
SUBLEVEL_SAMPLES = 2000
# Norm ball the sweep's minimizers must stay in (the nondegeneracy probe).
NONDEGENERACY_RADIUS = 10.0
# Fewest sweep records the penalty-type probe judges a trend from.
MIN_SWEEP_RECORDS = 4
# Penalty-type probe: feasibility gaps at or below this count as zero, solver
# noise rather than a trend, and a gap may grow by this factor from one c to the next.
GAP_FLOOR = 1e-6
GAP_GROWTH = 1.1


@dataclass(frozen=True)
class SweepRecord:
    c: float
    best_x: Tuple[float, ...]
    best_F: float
    feasibility_gap_total: float
    dist_to_xstar: float
    n_starts_agreeing: int
    failed: bool = False

    def passes(self, cert: KnownSolution, strict: bool = True) -> bool:
        """The argmin lies within ``PASS_TOL`` of x* (and, when strict, the
        minimum value matches f* within ``PASS_TOL``); a failed solve fails."""
        ok = not self.failed and self.dist_to_xstar <= PASS_TOL
        return ok and (not strict or _matches_f_star(self.best_F, cert.f_star))


def _matches_f_star(value: float, f_star: float) -> bool:
    """The value rule of a strict pass."""
    return abs(value - f_star) <= PASS_TOL


def strict_fail_bound(f_star: float) -> float:
    """The largest float below f* that the strict value rule rejects: a
    minimum at or below it fails ``SweepRecord.passes(cert, strict=True)``,
    since a lower value lies no nearer f*.  -inf for a non-finite f*."""
    if not math.isfinite(f_star):
        return -math.inf
    # f* - PASS_TOL is rounded, and so may lie on either side of the bound.
    w = f_star - PASS_TOL
    while _matches_f_star(w, f_star):
        w = math.nextafter(w, -math.inf)
    while not _matches_f_star(up := math.nextafter(w, math.inf), f_star):
        w = up
    return w


def _solve_at(penalty: PenaltyHandle, c: float, cfg: SolverConfig,
              stop_below: float = -math.inf) -> SweepRecord:
    """Multistart-minimize F(., c), polish the winner, keep the better of
    the two points and record it; a failed solve becomes a failed record.

    ``stop_below`` goes to ``minimize``; a result at or below it is
    recorded unpolished, as polish could only lower its value."""
    problem = penalty.problem
    lower, upper = problem.box()
    func = lambda z: penalty(z, c)
    try:
        result = minimize(func, lower, upper, cfg, stop_below)
    except AllStartsFailed:
        return SweepRecord(
            c=float(c),
            best_x=tuple(float("nan") for _ in range(problem.dim)),
            best_F=math.inf,
            feasibility_gap_total=math.inf,
            dist_to_xstar=math.inf,
            n_starts_agreeing=0,
            failed=True,
        )
    x, value = result.x, result.value
    if value > stop_below:
        polished, polished_value = polish(func, x, lower, upper)
        if polished_value <= value:
            x, value = polished, polished_value
    cert = problem.certificate
    return SweepRecord(
        c=float(c),
        best_x=tuple(float(v) for v in x),
        best_F=float(value),
        feasibility_gap_total=float(feasibility_gap(problem, x).total),
        dist_to_xstar=norm(x - cert.x_star) if cert is not None else math.nan,
        n_starts_agreeing=result.n_starts_agreeing,
    )


def geometric_grid(c_min: float, c_max: float, n_steps: int) -> List[float]:
    if not (0 < c_min < c_max < math.inf) or n_steps < 2:
        raise ValueError("need 0 < c_min < c_max < inf and at least two steps")
    return np.geomspace(c_min, c_max, n_steps).tolist()


def c_sweep(
    penalty: PenaltyHandle,
    c_grid: Sequence[float],
    cfg: SolverConfig = SolverConfig(),
) -> List[SweepRecord]:
    """One polished multistart minimization per penalty parameter; solver
    failures are recorded per-c, not raised."""
    if any(b <= a for a, b in zip(c_grid, c_grid[1:])):
        raise ValueError("c grid must be increasing")
    return [_solve_at(penalty, c, cfg) for c in c_grid]


def penalty_type_probe(records: Sequence[SweepRecord]) -> bool:
    """Feasibility gaps along the sweep must end at or below ``GAP_FLOOR``
    and, above it, grow by no more than ``GAP_GROWTH`` from one c to the
    next, mirroring cluster points of minimizers being feasible as c grows."""
    if len(records) < MIN_SWEEP_RECORDS:
        raise ValueError(f"need at least {MIN_SWEEP_RECORDS} sweep records")
    if any(r.failed for r in records):
        return False
    gaps = [r.feasibility_gap_total for r in records]
    if gaps[-1] > GAP_FLOOR:
        return False
    for prev, cur in zip(gaps, gaps[1:]):
        if cur > GAP_FLOOR and cur > GAP_GROWTH * prev:
            return False
    return True


def nondegeneracy_probe(records: Sequence[SweepRecord]) -> bool:
    """Minimizers must exist and stay inside the ``NONDEGENERACY_RADIUS`` norm ball."""
    if not records:
        raise ValueError("need at least one record")
    for r in records:
        if r.failed or not math.isfinite(r.best_F):
            return False
        if norm(r.best_x) > NONDEGENERACY_RADIUS:
            return False
    return True


def _unsettled(penalty: PenaltyHandle, points, c: float, reference: float):
    """The points, in order, where f(x) - beta(c) does not clear ``reference``
    by ``SETTLE_RTOL * (|f(x)| + beta(c))``, as a NaN f(x) does not; every
    point for a handle without a floor.  c must be a valid penalty parameter."""
    if penalty.floor is None:
        yield from points
        return
    objective, beta = penalty.problem.objective, penalty.floor(c)
    for x in points:
        f_val = float(objective(x))
        if not f_val - beta - reference >= SETTLE_RTOL * (abs(f_val) + beta):
            yield x


def local_exactness_probe(
    penalty: PenaltyHandle,
    x_star,
    c: float,
    seed: int = 0,
) -> bool:
    """True iff x_star minimizes F(., c) over ``LOCAL_SAMPLES`` samples of
    the ``LOCAL_RADIUS`` ball around it, clipped to the box.  On an
    increasing c list, "from some tested c on" holds exactly when it holds
    at the largest c, so callers pass that.  F is called at x_star, then at
    the samples f cannot settle (``_unsettled``)."""
    x_star = np.asarray(x_star, dtype=float)
    problem = penalty.problem
    lower, upper = problem.box()
    rng = np.random.default_rng(seed)
    dim = x_star.shape[0]
    samples = []
    for _ in range(LOCAL_SAMPLES):
        direction = rng.normal(size=dim)
        length = norm(direction)
        if length == 0.0:
            continue
        r = LOCAL_RADIUS * rng.uniform() ** (1.0 / dim)
        samples.append(np.clip(x_star + direction / length * r, lower, upper))
    base = penalty(x_star, c)
    return all(penalty(x, c) >= base - PROBE_SLACK for x in _unsettled(penalty, samples, c, base))


def sublevel_bounded_probe(
    penalty: PenaltyHandle,
    c0: float,
    f_star: float,
    seed: int = 0,
) -> bool:
    """Boundedness evidence for {x : F(x, c0) < f*}: no point on the
    expanded shell around the box may beat f*.  Sampling evidence only.  F
    is called only at the shell points f cannot settle (``_unsettled``)."""
    check_penalty_parameter(c0)
    problem = penalty.problem
    lower, upper = problem.box()
    center = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    rng = np.random.default_rng(seed)
    # One draw of all rows is the same stream as one draw per row.
    draws = rng.uniform(-SUBLEVEL_EXPANSION, SUBLEVEL_EXPANSION, size=(SUBLEVEL_SAMPLES, problem.dim))
    points = center + draws * half
    shell = points[~(np.all(points >= lower, axis=1) & np.all(points <= upper, axis=1))]
    for point in _unsettled(penalty, shell, c0, f_star):
        if penalty(point, c0) < f_star - PROBE_SLACK:
            return False
    return len(shell) > 0


@dataclass(frozen=True)
class CStarResult:
    c_star: Optional[float]
    history: Tuple[Tuple[float, bool], ...]
    confirm: Optional[SweepRecord] = None


def estimate_c_star(
    penalty: PenaltyHandle,
    c_lo: float,
    c_hi: float,
    tol_rel: float = 0.02,
    cfg: SolverConfig = SolverConfig(),
    strict: bool = True,
    *,
    sweep: Sequence[SweepRecord] = (),
) -> CStarResult:
    """Geometric bisection for the least exact penalty parameter.

    The pass predicate at c is ``SweepRecord.passes`` on the polished
    multistart argmin of F(., c).  ``sweep`` holds records this penalty
    already solved at this ``cfg`` (``c_sweep``); a c found there is
    judged from its record instead of solved again, which gives the same
    answer because a solve is deterministic for a fixed ``cfg``.  A
    strict solve stops at its first witness, a start whose minimum is at
    or below ``strict_fail_bound(f*)``: the full solve could only find a
    lower value and would fail as well, so the history is the same.  A
    strict step keeps the argmin of every failing c as a witness; a c
    with no record, at which F at a kept witness is at or below that
    bound, fails unsolved, and one polish from that witness is kept too.
    The confirmation solve and every non-strict solve run all their starts.
    Bisection presumes passes form an up-set in c; the confirmation probe
    at ``CONFIRM_FACTOR * c_star`` raises NonMonotonePredicate if that
    structure is violated.
    """
    if not (0 < c_lo < c_hi < math.inf):
        raise ValueError("need 0 < c_lo < c_hi < inf")
    # 1 + tol_rel must be a float above 1, or the bracket never gets narrow
    # enough, and finite, or the bisection never starts.
    if not 1.0 < 1.0 + tol_rel < math.inf:
        raise ValueError("tol_rel must be positive and finite")
    cert = penalty.problem.certificate
    if cert is None:
        raise ValueError(f"{penalty.problem.name} carries no certificate")
    history: List[Tuple[float, bool]] = []
    solved = {rec.c: rec for rec in sweep}
    stop_below = strict_fail_bound(cert.f_star) if strict else -math.inf
    witnesses: List[np.ndarray] = []  # argmins of the failing strict steps
    def refuted(c: float) -> bool:
        for w in witnesses:
            if penalty(w, c) <= stop_below:
                witnesses.append(polish(lambda z: penalty(z, c), w, *penalty.problem.box())[0])
                return True
        return False

    def predicate(c: float) -> bool:
        rec = solved.get(c)
        if rec is None and refuted(c):
            ok = False
        else:
            rec = rec or _solve_at(penalty, c, cfg, stop_below)
            ok = rec.passes(cert, strict)
            if strict and not ok and not rec.failed:
                witnesses.append(np.array(rec.best_x))
        history.append((float(c), ok))
        return ok

    if not predicate(c_hi):
        return CStarResult(c_star=None, history=tuple(history))
    if predicate(c_lo):
        c_star = float(c_lo)
    else:
        lo, hi = c_lo, c_hi
        while hi / lo > 1.0 + tol_rel:
            mid = math.sqrt(lo * hi)
            if predicate(mid):
                hi = mid
            else:
                lo = mid
        c_star = math.sqrt(lo * hi)
    confirm_c = CONFIRM_FACTOR * c_star
    confirm = _solve_at(penalty, confirm_c, cfg)
    if not confirm.passes(cert, strict):
        raise NonMonotonePredicate(
            f"pass at c={c_star} but fail at c={confirm_c} (value {confirm.best_F})"
        )
    history.append((float(confirm_c), True))
    return CStarResult(c_star=float(c_star), history=tuple(history), confirm=confirm)
