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

from .auglag import hpr_closed_form
from .errors import AllStartsFailed, NonMonotonePredicate, UnknownProblem
from .penalties import default_phi, linear_state, linear_value, q_order, qpen_state, qpen_value
from .problems import (ConstrainedProblem, KnownSolution, feasibility_gap, flat_multipliers,
                       split_multipliers)
from .smoothpen import (KAPPA_SDP, KAPPA_SOC, EstimatorConfig, c1_state, c1_value, check_barrier,
                        check_cone, constant_normal_data)
from .solvers import SolverConfig, minimize, polish


@dataclass(frozen=True)
class PenaltyHandle:
    """A separating function F(x, c) bound to one problem."""

    problem: ConstrainedProblem
    func: Callable[[np.ndarray, float], float]
    params: Dict[str, float]

    def __call__(self, x, c: float) -> float:
        return self.func(x, c)


_MISSING = object()
_FLOAT64 = np.dtype(np.float64)


def _memoized(problem: ConstrainedProblem, state: Callable, value: Callable) -> Callable:
    """F(x, c) = value(state(x), c), with state(x), everything of F that
    does not read c, kept by the bytes of x.

    The memo holds the states met at the current c and at the c before
    it: a new c drops the older set, and a state found there is copied
    into the current one.  An x of another shape than (dim,) is never
    looked up or stored, and a state that raises is not stored.  A c that
    is not positive and finite raises ValueError before anything is evaluated.
    """
    shape = (problem.dim,)
    current: dict = {}
    previous: dict = {}
    current_c = None

    def func(x, c):
        nonlocal current, previous, current_c
        if not 0.0 < c < math.inf:
            raise ValueError("penalty parameter c must be positive and finite")
        if c != current_c:
            current, previous, current_c = {}, current, c
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64:  # the solver's x passes as is
            x = np.asarray(x, dtype=float)
        if x.shape != shape:
            return value(state(x), c)
        key = x.tobytes()
        found = current.get(key, _MISSING)
        if found is _MISSING:
            found = previous.get(key, _MISSING)
            if found is _MISSING:
                found = state(x)
            current[key] = found
        return value(found, c)

    return func


def _linear(problem):
    phi = default_phi(problem)
    return _memoized(problem, lambda x: linear_state(problem, phi, x),
                     lambda s, c: linear_value(s, c)), {}


def _qorder(problem, q=1.0):
    qf, phi = q_order(q), default_phi(problem)
    return _memoized(problem, lambda x: qpen_state(problem, phi, x),
                     lambda s, c: qpen_value(qf, s, c)), {"q": q}


def _c1(problem, sdp, alpha, kappa, zeta1, zeta2):
    check_cone(problem, sdp)
    cfg = EstimatorConfig(zeta1=zeta1, zeta2=zeta2)
    check_barrier(sdp, alpha, kappa)
    params = dict(alpha=alpha, kappa=kappa, zeta1=zeta1, zeta2=zeta2)
    data = constant_normal_data(problem)
    return _memoized(problem, lambda x: c1_state(problem, x, alpha, kappa, cfg, data),
                     lambda s, c: c1_value(problem, s, c)), params


def _c1_socp(problem, alpha=1.0, kappa=KAPPA_SOC, zeta1=1.0, zeta2=1.0):
    return _c1(problem, False, alpha, kappa, zeta1, zeta2)


def _c1_sdp(problem, alpha=1.0, kappa=KAPPA_SDP, zeta1=1.0, zeta2=1.0):
    return _c1(problem, True, alpha, kappa, zeta1, zeta2)


def _al_hpr(problem, lam=None, mu=None):
    # lam is the flat cone layout of flat_multipliers; decoded here, once.
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
    lam_soc, lam_sdp = split_multipliers(problem, lam)
    params = {f"lambda_{i}": float(v) for i, v in enumerate(lam)}
    params.update({f"mu_{i}": float(v) for i, v in enumerate(mu)})
    # Every term reads c (dist(lam + c g)), so F is evaluated in one piece.
    return (lambda x, c: hpr_closed_form(problem, x, lam=lam_soc, lam_sdp=lam_sdp, mu=mu, c=c),
            params)


# Penalty kind -> builder of F and of the parameters a report records.  A
# builder's keyword parameters, with their defaults, are all the kind reads.
# F calls its evaluator, or its two stages, through this module's globals,
# which a tracer may wrap.  Each handle of a staged kind owns its memo.
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
    func, recorded = _BUILDERS[kind](problem, **params)
    return PenaltyHandle(problem=problem, func=func, params=recorded)


# The verdict policy: every threshold behind a reported c* or verdict.
# Distance-to-x* and |F - f*| tolerance of every pass judgement.
PASS_TOL = 1e-4
# estimate_c_star confirms its c* by one more solve at this multiple of it.
CONFIRM_FACTOR = 2.0
# How far below F(x*, c) (local probe) or f* (sublevel probe) a sample may lie.
PROBE_SLACK = 1e-9
# Local probe: neighborhood samples.
LOCAL_SAMPLES = 200
# Sublevel probe: samples of the box scaled by this factor about its center.
SUBLEVEL_EXPANSION = 2.0
SUBLEVEL_SAMPLES = 2000
# Norm ball the sweep's minimizers must stay in (localize's nondegeneracy probe).
NONDEGENERACY_RADIUS = 10.0
# Fewest sweep records the penalty-type probe judges a trend from.
MIN_SWEEP_RECORDS = 4


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
        return ok and (not strict or abs(self.best_F - cert.f_star) <= PASS_TOL)


def _solve_at(penalty: PenaltyHandle, c: float, cfg: SolverConfig) -> SweepRecord:
    """Multistart-minimize F(., c), polish the winner, keep the better of
    the two points and record it; a failed solve becomes a failed record."""
    problem = penalty.problem
    lower, upper = problem.box()
    func = lambda z: penalty(z, c)
    try:
        result = minimize(func, lower, upper, cfg)
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
    x, value = polish(func, result.x, lower, upper)
    if not value <= result.value:
        x, value = result.x, result.value
    cert = problem.certificate
    return SweepRecord(
        c=float(c),
        best_x=tuple(float(v) for v in x),
        best_F=float(value),
        feasibility_gap_total=float(feasibility_gap(problem, x).total),
        dist_to_xstar=float(np.linalg.norm(x - cert.x_star)) if cert is not None else math.nan,
        n_starts_agreeing=result.n_starts_agreeing,
    )


def geometric_grid(c_min: float, c_max: float, n_steps: int) -> List[float]:
    if not (0 < c_min < c_max < math.inf) or n_steps < 2:
        raise ValueError("need 0 < c_min < c_max < inf and at least two steps")
    return list(np.geomspace(c_min, c_max, n_steps))


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
    """Feasibility gaps along the sweep must shrink to ~0 without growing
    (10% noise allowance), mirroring cluster points of minimizers being
    feasible as c grows."""
    if len(records) < MIN_SWEEP_RECORDS:
        raise ValueError(f"need at least {MIN_SWEEP_RECORDS} sweep records")
    if any(r.failed for r in records):
        return False
    gaps = [r.feasibility_gap_total for r in records]
    if gaps[-1] > 1e-6:
        return False
    # Gaps below 1e-6 are treated as zero: at that scale the sequence is
    # solver noise, not a trend.
    for prev, cur in zip(gaps, gaps[1:]):
        if cur > 1e-6 and cur > 1.1 * prev:
            return False
    return True


def nondegeneracy_probe(records: Sequence[SweepRecord], radius: float) -> bool:
    """Minimizers must exist and stay inside a fixed norm ball."""
    if not records:
        raise ValueError("need at least one record")
    for r in records:
        if r.failed or not math.isfinite(r.best_F):
            return False
        if float(np.linalg.norm(r.best_x)) > radius:
            return False
    return True


def local_exactness_probe(
    penalty: PenaltyHandle,
    x_star,
    c: float,
    radius: float = 0.5,
    seed: int = 0,
) -> bool:
    """True iff x_star minimizes F(., c) over a sampled neighborhood
    intersected with the box.  On an increasing c list, "from some tested
    c on" holds exactly when it holds at the largest c, so callers pass that."""
    x_star = np.asarray(x_star, dtype=float)
    problem = penalty.problem
    lower, upper = problem.box()
    rng = np.random.default_rng(seed)
    dim = x_star.shape[0]
    samples = []
    for _ in range(LOCAL_SAMPLES):
        direction = rng.normal(size=dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            continue
        r = radius * rng.uniform() ** (1.0 / dim)
        samples.append(np.clip(x_star + direction / norm * r, lower, upper))
    base = penalty(x_star, c)
    return all(penalty(x, c) >= base - PROBE_SLACK for x in samples)


def sublevel_bounded_probe(
    penalty: PenaltyHandle,
    c0: float,
    f_star: float,
    seed: int = 0,
) -> bool:
    """Boundedness evidence for {x : F(x, c0) < f*}: no point on the
    expanded shell around the box may beat f*.  Sampling evidence only."""
    problem = penalty.problem
    lower, upper = problem.box()
    center = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    rng = np.random.default_rng(seed)
    # One draw of all rows is the same stream as one draw per row.
    draws = rng.uniform(-SUBLEVEL_EXPANSION, SUBLEVEL_EXPANSION, size=(SUBLEVEL_SAMPLES, problem.dim))
    points = center + draws * half
    shell = points[~(np.all(points >= lower, axis=1) & np.all(points <= upper, axis=1))]
    for point in shell:
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
    answer because a solve is deterministic for a fixed ``cfg``.
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

    def predicate(c: float) -> bool:
        rec = solved.get(c)
        ok = (rec if rec is not None else _solve_at(penalty, c, cfg)).passes(cert, strict)
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
