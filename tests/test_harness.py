import math

import numpy as np
import pytest

from epflab.errors import NonMonotonePredicate, UnknownProblem
from epflab.harness import (
    PenaltyHandle,
    SweepRecord,
    c_sweep,
    estimate_c_star,
    geometric_grid,
    local_exactness_probe,
    make_penalty,
    nondegeneracy_probe,
    penalty_type_probe,
    strict_exactness_probe,
    sublevel_bounded_probe,
)
from epflab.problems import get_problem
from epflab.report import localize
from epflab.solvers import SolverConfig

CFG = SolverConfig(n_starts=8, seed=0)


def _walled(x, c):
    """|x| on toy-lin-1 (minimized at x* = 0, f* = 0) up to c = 7; +inf everywhere above."""
    return math.inf if c > 7.0 else abs(float(x[0]))


def test_geometric_grid():
    grid = geometric_grid(1.0, 8.0, 4)
    assert np.allclose(grid, [1.0, 2.0, 4.0, 8.0])
    with pytest.raises(ValueError):
        geometric_grid(2.0, 1.0, 4)


def test_make_penalty_kinds():
    p = get_problem("toy-eq-1")
    for kind in p.penalties:
        handle = make_penalty(p, kind)
        assert math.isfinite(handle(p.certificate.x_star, 2.0))
    with pytest.raises(UnknownProblem):
        make_penalty(p, "bogus")


def test_make_penalty_al_hpr_multiplier_lengths():
    lin, eq = get_problem("toy-lin-1"), get_problem("toy-eq-1")
    # toy-lin-1: one scalar SOC block and no equality; toy-eq-1: one equality only.
    for problem, kwargs in ((lin, {"lam": [1.0, 5.0]}), (lin, {"mu": [5.0]}),
                            (eq, {"lam": [0.0]}), (eq, {"mu": [0.0, 0.0]}), (eq, {"mu": []})):
        with pytest.raises(ValueError):
            make_penalty(problem, "al-hpr", **kwargs)
    assert make_penalty(lin, "al-hpr").params == {"lambda_0": 1.0}
    assert make_penalty(lin, "al-hpr", lam=[3.0]).params == {"lambda_0": 3.0}
    assert make_penalty(eq, "al-hpr").params == {"mu_0": -2.0}
    handle = make_penalty(eq, "al-hpr", mu=[0.0])
    assert handle.params == {"mu_0": 0.0}
    assert math.isfinite(handle(eq.certificate.x_star, 2.0))


def test_sweep_toy_lin():
    p = get_problem("toy-lin-1")
    records = c_sweep(make_penalty(p, "linear"), [0.5, 1.5, 2.0, 8.0], CFG)
    assert len(records) == 4
    # Under-penalized: minimizer escapes to x = 2 (gap 2); exact afterwards.
    assert records[0].feasibility_gap_total > 1.0
    assert records[-1].feasibility_gap_total <= 1e-6
    assert records[-1].dist_to_xstar <= 1e-4


def test_sweep_requires_increasing_grid():
    p = get_problem("toy-lin-1")
    with pytest.raises(ValueError):
        c_sweep(make_penalty(p, "linear"), [2.0, 1.0], CFG)


def test_sweep_records_failures():
    p = get_problem("toy-lin-1")
    broken = PenaltyHandle(kind="linear", problem=p, func=lambda x, c: math.inf, params={})
    records = c_sweep(broken, [1.0, 2.0], CFG)
    assert all(r.failed for r in records)


def test_penalty_type_probe_pass_and_fixtures():
    p = get_problem("toy-lin-1")
    records = c_sweep(make_penalty(p, "linear"), [0.5, 1.5, 2.0, 8.0], CFG)
    assert penalty_type_probe(records)

    # Broken penalty F = f - c*phi rewards infeasibility.
    from epflab.penalties import LinearPenalty, default_phi

    phi = default_phi(p)
    anti = PenaltyHandle(kind="linear", problem=p,
                         func=lambda x, c: p.f(x) - c * phi(x), params={})
    assert not penalty_type_probe(c_sweep(anti, [0.5, 1.0, 2.0, 4.0], CFG))

    # Constant positive infeasibility can never reach a zero gap.
    stuck = PenaltyHandle(kind="linear", problem=p,
                          func=lambda x, c: p.f(x) + c * 1.0 + float(x[0] ** 2), params={})
    records = c_sweep(stuck, [0.5, 1.0, 2.0, 4.0], CFG)
    # All minimizers sit at x = 0 (feasible), so force the fixture's point
    # of failure: gap stagnation shows up through an infeasible argmin.
    bad = [SweepRecord(c=r.c, best_x=(2.0,), best_F=r.best_F,
                       feasibility_gap_total=2.0, dist_to_xstar=2.0,
                       n_starts_agreeing=1) for r in records]
    assert not penalty_type_probe(bad)

    with pytest.raises(ValueError):
        penalty_type_probe(records[:2])


def test_nondegeneracy_probe():
    p = get_problem("toy-lin-1")
    records = c_sweep(make_penalty(p, "linear"), [0.5, 1.5, 2.0, 8.0], CFG)
    assert nondegeneracy_probe(records, radius=10.0)
    assert not nondegeneracy_probe(records, radius=1.0)  # escape point x = 2 at c = 0.5
    failed = [SweepRecord(c=1.0, best_x=(math.nan,), best_F=math.inf,
                          feasibility_gap_total=math.inf, dist_to_xstar=math.inf,
                          n_starts_agreeing=0, failed=True)]
    assert not nondegeneracy_probe(failed, radius=10.0)
    with pytest.raises(ValueError):
        nondegeneracy_probe([], radius=1.0)


def test_local_exactness_probe():
    p = get_problem("toy-lin-1")
    pen = make_penalty(p, "linear")
    x_star = p.certificate.x_star
    assert local_exactness_probe(pen, x_star, [0.5, 2.0, 8.0], radius=0.5)
    assert not local_exactness_probe(pen, x_star, [0.25, 0.5], radius=0.5)


def test_local_exactness_c1_socp():
    p = get_problem("toy-socp-1")
    pen = make_penalty(p, "c1-socp")
    assert local_exactness_probe(pen, p.certificate.x_star, [1.0, 10.0, 100.0, 1000.0], radius=0.3)


def test_sublevel_bounded_probe():
    p = get_problem("toy-socp-1")
    pen = make_penalty(p, "c1-socp")
    assert sublevel_bounded_probe(pen, 10.0, p.certificate.f_star)
    # Non-coercive fixture: big negative values on the shell.
    loose = PenaltyHandle(kind="linear", problem=p,
                          func=lambda x, c: -float(np.linalg.norm(x)), params={})
    assert not sublevel_bounded_probe(loose, 10.0, p.certificate.f_star)
    # F = f everywhere with f coercive enough that every shell value
    # beats the optimum: toy-eq-1 has f = ||x||^2 >= 9 on the shell.
    q = get_problem("toy-eq-1")
    coercive = PenaltyHandle(kind="linear", problem=q, func=lambda x, c: q.f(x), params={})
    assert sublevel_bounded_probe(coercive, 10.0, q.certificate.f_star)


def test_estimate_c_star_toy_lin():
    p = get_problem("toy-lin-1")
    res = estimate_c_star(make_penalty(p, "linear"), 0.25, 64.0, cfg=CFG)
    assert res.c_star is not None
    assert abs(res.c_star - 1.0) <= 0.05
    # Passing c values form an up-set: every tested c above the estimate passed.
    for c, ok in res.history:
        if c > res.c_star * 1.05:
            assert ok


def test_estimate_c_star_pass_at_lo():
    p = get_problem("toy-eq-1")
    res = estimate_c_star(make_penalty(p, "al-hpr"), 1.0, 64.0, cfg=CFG)
    assert res.c_star == 1.0


def test_estimate_c_star_not_found():
    p = get_problem("toy-eq-1")
    res = estimate_c_star(make_penalty(p, "al-hpr", mu=[0.0]), 1.0, 1000.0, cfg=CFG)
    assert res.c_star is None


def test_estimate_c_star_reproducible():
    p = get_problem("toy-lin-1")
    r1 = estimate_c_star(make_penalty(p, "linear"), 0.25, 64.0, cfg=CFG)
    r2 = estimate_c_star(make_penalty(p, "linear"), 0.25, 64.0, cfg=CFG)
    assert r1.c_star == r2.c_star
    assert r1.history == r2.history


def test_estimate_c_star_validation():
    p = get_problem("toy-lin-1")
    with pytest.raises(ValueError):
        estimate_c_star(make_penalty(p, "linear"), 4.0, 1.0, cfg=CFG)
    # With 1 + tol_rel == 1 the bracket never narrows enough and bisection never ends.
    for tol_rel in (0.0, -0.5, 1e-17):
        with pytest.raises(ValueError):
            estimate_c_star(make_penalty(p, "linear"), 0.25, 64.0, tol_rel=tol_rel, cfg=CFG)


def test_estimate_c_star_nonmonotone_detection():
    p = get_problem("toy-lin-1")
    # Passes only inside a c window: predicate true near c in [1, 4], false above.
    def tricky(x, c):
        if c > 7.0:
            return float((x[0] - 1.0) ** 2)  # argmin far from x* = 0
        return float(-x[0] + 2.0 * max(0.0, x[0]))
    handle = PenaltyHandle(kind="linear", problem=p, func=tricky, params={})
    with pytest.raises(NonMonotonePredicate):
        estimate_c_star(handle, 4.0, 6.0, cfg=CFG)
    # A confirm solve with no finite start (at c = 8) is a failing c too.
    walled = PenaltyHandle(kind="linear", problem=p, func=_walled, params={})
    with pytest.raises(NonMonotonePredicate):
        estimate_c_star(walled, 4.0, 6.0, cfg=CFG)


def test_strict_exactness_probe_records_failed_solve():
    p = get_problem("toy-lin-1")
    verdict = strict_exactness_probe(p, _walled, [4.0, 8.0], CFG)
    assert verdict.per_c == ((4.0, True), (8.0, False))
    assert verdict.first_passing_c is None
    assert verdict.details[1].failed


def test_localize_bisects_inside_sweep_bracket():
    p = get_problem("toy-lin-1")
    pen = make_penalty(p, "linear")
    cfg = SolverConfig(n_starts=4, seed=0)
    grid = geometric_grid(0.5, 32.0, 4)
    records = c_sweep(pen, grid, cfg)
    # The sweep and the bisection judge each tested c alike.
    results = [estimate_c_star(pen, lo, hi, cfg=cfg) for lo, hi in zip(grid, grid[1:])]
    judged = {c: ok for res in results for c, ok in res.history}
    assert all(judged[r.c] == r.passes(p.certificate) for r in records)
    j = max(i for i, r in enumerate(records) if not r.passes(p.certificate))
    rep = localize(p, "linear", cfg=cfg, c_min=0.5, c_max=32.0, c_steps=4)
    assert rep.evidence == tuple(records)
    assert rep.c_star == results[j].c_star
    assert grid[j] < rep.c_star <= grid[j + 1]
