"""The benchmark's workloads: which (problem, penalty) pairs each one runs,
at which fixed solver budget, and the correctness gate every task passes.

Each task is one call of the library on one pair with its own Sobol seed.
The calls go through the module attributes (``report.localize``,
``harness.estimate_c_star``) so that a traced run sees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

# tol_rel of every bisection; a task's c* must lie within a factor
# (1 + TOL_REL)**2 of its reference.
TOL_REL = 0.02

# Analytic least exact parameter of the linear penalty (and of the q-order
# penalty with q = 1, which coincides with it when f >= 0): the multiplier
# norm, for the problems where it is derived.
ANALYTIC_C_STAR = {
    "toy-lin-1": 1.0,
    "toy-eq-1": 2.0,
    "toy-socp-1": 2.0 * math.sqrt(2.0),
    "toy-sdp-1": 1.0,
}

# toy-socp-1/c1-socp has a spurious minimum below c* that only 45-60 % of
# single starts reach (measured at c = 1.45 and 1.6).  With 6 starts a
# bisection step missed it on 1 task in about 70 and c* came out near 1.39
# instead of 1.68, so this pair gets 16 starts wherever it runs.
# On toy-socp-1 with the linear (and the coinciding q = 1) penalty, about
# 15 % of single Nelder-Mead starts stall short of x* at c = 512 and 1024.
# With 4 starts the predicate at c = 512 failed on 1 seed of 240, and 1
# localize task of about 70 returned no c*; with 6 starts it failed on
# none of 540 (c = 512 and 1024), so these pairs get 8 starts everywhere.
PAIR_STARTS = {("toy-socp-1", "c1-socp"): 16,
               ("toy-socp-1", "linear"): 8,
               ("toy-socp-1", "qorder"): 8}


@dataclass(frozen=True)
class Workload:
    name: str
    call: str  # "localize" or "estimate_c_star"
    pairs: Tuple[Tuple[str, str], ...]
    n_starts: int  # Sobol starts per minimize, unless PAIR_STARTS says otherwise
    c_lo: float
    c_hi: float
    c_steps: int  # localize only: size of the sweep grid on [c_lo, c_hi]
    # c* returned by the unmodified library at this budget (seed 0), for
    # pairs without an analytic threshold.
    seed_c_star: dict


WORKLOADS = {
    # Every F evaluation goes through numerics: Cholesky in the multiplier
    # estimate (c1 penalties) or Jacobi eigenvalues (anything on toy-sdp-1).
    "c1-battery": Workload(
        name="c1-battery",
        call="localize",
        pairs=(("toy-eq-1", "c1-socp"), ("toy-socp-1", "c1-socp"), ("toy-socp-2", "c1-socp"),
               ("toy-sdp-1", "linear"), ("toy-sdp-1", "qorder"), ("toy-sdp-1", "c1-sdp")),
        n_starts=6,
        c_lo=0.5,
        c_hi=512.0,
        c_steps=6,
        seed_c_star={
            ("toy-eq-1", "c1-socp"): 0.5,
            ("toy-socp-1", "c1-socp"): 1.6795175546669767,
            ("toy-socp-2", "c1-socp"): 0.5,
            ("toy-sdp-1", "c1-sdp"): 1.871632096877951,
        },
    ),
    # Cheap F, numerics never called: solver driver, penalties, feasibility
    # gap and Lorentz projections carry the time.
    "classic-battery": Workload(
        name="classic-battery",
        call="localize",
        pairs=(("toy-lin-1", "linear"), ("toy-lin-1", "al-hpr"),
               ("toy-eq-1", "linear"), ("toy-eq-1", "qorder"), ("toy-eq-1", "al-hpr"),
               ("toy-socp-1", "linear"), ("toy-socp-1", "qorder"),
               ("toy-socp-2", "linear"), ("toy-socp-2", "qorder")),
        n_starts=4,
        c_lo=0.5,
        c_hi=512.0,
        c_steps=6,
        seed_c_star={
            ("toy-lin-1", "al-hpr"): 0.5,
            ("toy-eq-1", "al-hpr"): 0.5,
            ("toy-socp-2", "linear"): 1.1653013799927041,
            ("toy-socp-2", "qorder"): 1.1653013799927041,
        },
    ),
    # Standalone bisection at the CLI defaults (strict, [0.5, 1024]) on
    # every registry pair; no sweep to seed it from.
    "cstar-direct": Workload(
        name="cstar-direct",
        call="estimate_c_star",
        pairs=(("toy-lin-1", "linear"), ("toy-lin-1", "al-hpr"),
               ("toy-eq-1", "linear"), ("toy-eq-1", "qorder"), ("toy-eq-1", "c1-socp"),
               ("toy-eq-1", "al-hpr"),
               ("toy-socp-1", "linear"), ("toy-socp-1", "qorder"), ("toy-socp-1", "c1-socp"),
               ("toy-socp-2", "linear"), ("toy-socp-2", "qorder"), ("toy-socp-2", "c1-socp"),
               ("toy-sdp-1", "linear"), ("toy-sdp-1", "qorder"), ("toy-sdp-1", "c1-sdp")),
        n_starts=6,
        c_lo=0.5,
        c_hi=1024.0,
        c_steps=0,
        seed_c_star={
            ("toy-lin-1", "al-hpr"): 0.5,
            ("toy-eq-1", "c1-socp"): 0.5,
            ("toy-eq-1", "al-hpr"): 0.5,
            ("toy-socp-1", "c1-socp"): 1.6829316240523446,
            ("toy-socp-2", "linear"): 1.1771935661605586,
            ("toy-socp-2", "qorder"): 1.1771935661605586,
            ("toy-socp-2", "c1-socp"): 0.5,
            ("toy-sdp-1", "c1-sdp"): 1.8678352213832492,
        },
    ),
}


def task_seed(seed: int, pass_index: int, task_index: int) -> int:
    """Sobol seed of one task, derived from the run's workload seed."""
    return int(np.random.SeedSequence([seed, pass_index, task_index]).generate_state(1)[0])


@dataclass(frozen=True)
class Outcome:
    """What a task returned, reduced to the parts the gate compares."""

    c_star: Optional[float]
    verdicts: Tuple[bool, ...] = ()
    error: Optional[str] = None


def run_task(lib, workload: Workload, problem: str, penalty: str, seed: int) -> Outcome:
    """One library call. ``lib`` holds the epflab modules, looked up at call time."""
    n_starts = PAIR_STARTS.get((problem, penalty), workload.n_starts)
    cfg = lib.solvers.SolverConfig(n_starts=n_starts, seed=seed)
    try:
        prob = lib.problems.get_problem(problem)
        if workload.call == "localize":
            rep = lib.report.localize(prob, penalty, cfg=cfg, c_min=workload.c_lo,
                                      c_max=workload.c_hi, c_steps=workload.c_steps,
                                      tol_rel=TOL_REL)
            lib.report.serialize_report(rep)
            verdicts = (rep.penalty_type, rep.nondegenerate, rep.local_exact, rep.sublevel_bounded)
            return Outcome(c_star=rep.c_star, verdicts=verdicts)
        handle = lib.harness.make_penalty(prob, penalty)
        res = lib.harness.estimate_c_star(handle, workload.c_lo, workload.c_hi, tol_rel=TOL_REL,
                                          cfg=cfg, strict=True)
        return Outcome(c_star=res.c_star)
    except Exception as exc:  # a failed task is counted, not fatal
        return Outcome(c_star=None, error=f"{type(exc).__name__}: {exc}")


def reference(workload: Workload, problem: str, penalty: str) -> Tuple[float, bool]:
    """The c* a task is checked against, and whether it is the analytic one."""
    if penalty in ("linear", "qorder") and problem in ANALYTIC_C_STAR:
        return ANALYTIC_C_STAR[problem], True
    return workload.seed_c_star[(problem, penalty)], False


def check(workload: Workload, problem: str, penalty: str, out: Outcome) -> Tuple[list, list]:
    """Gate one task. Returns (failures, notes); the task passes when
    failures is empty.  Notes record known defects without failing."""
    if out.error is not None:
        return [f"raised {out.error}"], []
    failures, notes = [], []
    if out.verdicts and not all(out.verdicts):
        failures.append(f"verdicts {out.verdicts}")
    if out.c_star is None:
        return failures + ["no c* found"], notes
    ref, analytic = reference(workload, problem, penalty)
    factor = (1.0 + TOL_REL) ** 2
    if not ref / factor <= out.c_star <= ref * factor:
        failures.append(f"c* {out.c_star:.6g} not within x{factor:.4f} of {ref:.6g}")
    if analytic and out.c_star < ref:
        # Known defect: c* is reported as sqrt(lo * hi) with lo a failing c,
        # so it can sit below the theoretical threshold.
        notes.append(f"c* {out.c_star:.6g} below analytic threshold {ref:.6g}")
    return failures, notes
