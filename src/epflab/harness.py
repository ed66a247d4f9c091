"""Empirical exactness harness: penalty factory, one solve-at-c kernel
behind c-sweeps, least-exact-penalty-parameter estimation and the
strict-exactness probe, and the localization probes.

The probes turn the localization-principle conditions (penalty-type
behavior, non-degeneracy, local exactness, sublevel boundedness) into
sampling-based verdicts on certified benchmark problems; they are
evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .auglag import hpr_closed_form
from .errors import AllStartsFailed, NonMonotonePredicate, UnknownProblem
from .penalties import LinearPenalty, QFunction, linear_eval, qpen_eval, default_phi
from .problems import ConstrainedProblem, KnownSolution, feasibility_gap
from .smoothpen import EstimatorConfig, c1_penalty_soc, c1_penalty_sdp
from .solvers import SolverConfig, minimize, polish


@dataclass(frozen=True)
class PenaltyHandle:
    """A separating function F(x, c) bound to one problem."""

    kind: str
    problem: ConstrainedProblem
    func: Callable[[np.ndarray, float], float]
    params: Dict[str, float]

    def __call__(self, x, c: float) -> float:
        return self.func(x, c)


def _linear(problem, **_):
    pen = LinearPenalty(problem)
    return lambda x, c: linear_eval(pen, x, c), {}


def _qorder(problem, q, **_):
    qf, phi = QFunction.q_order(q), default_phi(problem)
    return lambda x, c: qpen_eval(qf, problem, phi, x, c), {"q": q}


def _c1(problem, alpha, kappa, zeta1, zeta2, sdp=False, **_):
    cfg = EstimatorConfig(zeta1=zeta1, zeta2=zeta2)
    kap = (1.0 if sdp else 2.0) if kappa is None else kappa
    params = dict(alpha=alpha, kappa=kap, zeta1=zeta1, zeta2=zeta2)
    if sdp:
        return lambda x, c: c1_penalty_sdp(problem, x, c, alpha=alpha, kappa=kap, cfg=cfg), params
    return lambda x, c: c1_penalty_soc(problem, x, c, alpha=alpha, kappa=kap, cfg=cfg), params


def _multipliers(values, n: int, name: str, params: dict) -> Optional[np.ndarray]:
    """``values`` as n multipliers, recorded in ``params`` as ``name_i``."""
    if values is None:
        return None
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.shape != (n,):
        raise ValueError(f"al-hpr needs {n} {name} multiplier(s), got {arr.size}")
    params.update({f"{name}_{i}": float(v) for i, v in enumerate(arr)})
    return arr


def _al_hpr(problem, lam, mu, **_):
    cert = problem.certificate
    if cert is not None:
        lam = cert.hpr_ineq_star if lam is None else lam
        mu = cert.mu_star if mu is None else mu
    params: Dict[str, float] = {}
    lam = _multipliers(lam, sum(b.scalar for b in problem.soc_blocks), "lambda", params)
    mu = _multipliers(mu, problem.n_eq, "mu", params)
    return lambda x, c: hpr_closed_form(problem, x, lam_ineq=lam, mu=mu, c=c), params


# Penalty kind -> builder of F and of the parameters a report records.  F
# calls its evaluator through this module's globals, which a tracer may wrap.
_BUILDERS = {"linear": _linear, "qorder": _qorder, "c1-socp": _c1,
             "c1-sdp": lambda problem, **kw: _c1(problem, sdp=True, **kw), "al-hpr": _al_hpr}
PENALTY_KINDS = tuple(_BUILDERS)


def make_penalty(
    problem: ConstrainedProblem,
    kind: str,
    q: float = 1.0,
    alpha: float = 1.0,
    kappa: Optional[float] = None,
    zeta1: float = 1.0,
    zeta2: float = 1.0,
    lam=None,
    mu=None,
) -> PenaltyHandle:
    """Build the requested separating function for a problem.

    For ``al-hpr`` the tuning multipliers default to the certificate's
    HPR pair; ``lam`` needs one entry per scalar SOC block and ``mu`` one
    per equality (ValueError otherwise).
    """
    if kind not in PENALTY_KINDS:
        raise UnknownProblem(f"unknown penalty kind {kind!r}")
    func, params = _BUILDERS[kind](problem, q=q, alpha=alpha, kappa=kappa, zeta1=zeta1,
                                   zeta2=zeta2, lam=lam, mu=mu)
    return PenaltyHandle(kind=kind, problem=problem, func=func, params=params)


# Default distance-to-x* and |F - f*| tolerances of every pass judgement.
PASS_TOL = 1e-4


@dataclass(frozen=True)
class SweepRecord:
    c: float
    best_x: Tuple[float, ...]
    best_F: float
    feasibility_gap_total: float
    dist_to_xstar: float
    n_starts_agreeing: int
    failed: bool = False

    def passes(self, cert: KnownSolution, x_tol: float = PASS_TOL, f_tol: float = PASS_TOL,
               strict: bool = True) -> bool:
        """The argmin lies within ``x_tol`` of x* (and, when strict, the
        minimum value matches f* within ``f_tol``); a failed solve fails."""
        ok = not self.failed and self.dist_to_xstar <= x_tol
        return ok and (not strict or abs(self.best_F - cert.f_star) <= f_tol)


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
    x, value = polish(func, result.x, lower, upper, cfg)
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


def _first_passing(per_c: Sequence[Tuple[float, bool]]) -> Optional[float]:
    """The first tested c from which every later tested c passes, or None."""
    first = None
    for c, ok in per_c:
        if not ok:
            first = None
        elif first is None:
            first = c
    return first


def geometric_grid(c_min: float, c_max: float, n_steps: int) -> List[float]:
    if not (0 < c_min < c_max) or n_steps < 2:
        raise ValueError("need 0 < c_min < c_max and at least two steps")
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
    if len(records) < 4:
        raise ValueError("need at least 4 sweep records")
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
    c_list: Sequence[float],
    radius: float = 0.5,
    n_samples: int = 200,
    seed: int = 0,
    slack: float = 1e-9,
) -> bool:
    """True iff from some tested c onward, x_star minimizes F(., c) over a
    sampled neighborhood intersected with the box."""
    x_star = np.asarray(x_star, dtype=float)
    problem = penalty.problem
    lower, upper = problem.box()
    rng = np.random.default_rng(seed)
    dim = x_star.shape[0]
    samples = []
    for _ in range(n_samples):
        direction = rng.normal(size=dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            continue
        r = radius * rng.uniform() ** (1.0 / dim)
        samples.append(np.clip(x_star + direction / norm * r, lower, upper))
    per_c = []
    for c in c_list:
        base = penalty(x_star, c)
        per_c.append((c, all(penalty(x, c) >= base - slack for x in samples)))
    return _first_passing(per_c) is not None


def sublevel_bounded_probe(
    penalty: PenaltyHandle,
    c0: float,
    f_star: float,
    expansion: float = 2.0,
    n_samples: int = 2000,
    seed: int = 0,
) -> bool:
    """Boundedness evidence for {x : F(x, c0) < f*}: no point on the
    expanded shell around the box may beat f*.  Sampling evidence only."""
    problem = penalty.problem
    lower, upper = problem.box()
    center = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    rng = np.random.default_rng(seed)
    found_shell = 0
    for _ in range(n_samples):
        point = center + rng.uniform(-expansion, expansion, size=problem.dim) * half
        if np.all(point >= lower) and np.all(point <= upper):
            continue
        found_shell += 1
        if penalty(point, c0) < f_star - 1e-9:
            return False
    return found_shell > 0


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
    x_tol: float = PASS_TOL,
    f_tol: float = PASS_TOL,
    confirm_factor: float = 2.0,
) -> CStarResult:
    """Geometric bisection for the least exact penalty parameter.

    The pass predicate at c is ``SweepRecord.passes`` on the polished
    multistart argmin of F(., c).  Bisection presumes passes form an
    up-set in c; the confirmation probe at ``confirm_factor * c_star``
    raises NonMonotonePredicate if that structure is violated.
    """
    if not (0 < c_lo < c_hi):
        raise ValueError("need 0 < c_lo < c_hi")
    # 1 + tol_rel must be a float above 1, or the bracket never gets narrow enough.
    if not 1.0 + tol_rel > 1.0:
        raise ValueError("tol_rel must be positive")
    cert = penalty.problem.certificate
    if cert is None:
        raise ValueError(f"{penalty.problem.name} carries no certificate")
    history: List[Tuple[float, bool]] = []

    def predicate(c: float) -> bool:
        ok = _solve_at(penalty, c, cfg).passes(cert, x_tol, f_tol, strict)
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
    confirm_c = confirm_factor * c_star
    confirm = _solve_at(penalty, confirm_c, cfg)
    if not confirm.passes(cert, x_tol, f_tol, strict):
        raise NonMonotonePredicate(
            f"pass at c={c_star} but fail at c={confirm_c} (value {confirm.best_F})"
        )
    history.append((float(confirm_c), True))
    return CStarResult(c_star=float(c_star), history=tuple(history), confirm=confirm)


@dataclass(frozen=True)
class StrictExactnessVerdict:
    per_c: Tuple[Tuple[float, bool], ...]
    first_passing_c: Optional[float]
    details: Tuple[SweepRecord, ...]


def strict_exactness_probe(
    problem: ConstrainedProblem,
    al_func: Callable[[np.ndarray, float], float],
    c_list: Sequence[float],
    cfg: SolverConfig = SolverConfig(),
    f_tol: float = PASS_TOL,
    x_tol: float = PASS_TOL,
) -> StrictExactnessVerdict:
    """For each c, minimize the augmented Lagrangian over the box and
    compare minimum and argmin against the certificate; a failed solve
    is a failing c."""
    cert = problem.certificate
    if cert is None:
        raise ValueError(f"{problem.name} carries no certificate")
    handle = PenaltyHandle(kind="augmented-lagrangian", problem=problem, func=al_func, params={})
    details = tuple(_solve_at(handle, c, cfg) for c in c_list)
    per_c = tuple((r.c, r.passes(cert, x_tol, f_tol)) for r in details)
    return StrictExactnessVerdict(per_c=per_c, first_passing_c=_first_passing(per_c), details=details)
