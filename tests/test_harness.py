import dataclasses
import gc
import inspect
import math
import warnings
import weakref

import numpy as np
import pytest

from epflab import harness
from epflab.errors import NonFiniteEvaluation, NonMonotonePredicate, UnknownProblem
from epflab.harness import (
    _BUILDERS,
    PENALTY_KINDS,
    PenaltyHandle,
    SweepRecord,
    c_sweep,
    estimate_c_star,
    geometric_grid,
    local_exactness_probe,
    make_penalty,
    nondegeneracy_probe,
    penalty_type_probe,
    sublevel_bounded_probe,
)
from epflab.problems import ConstrainedProblem, SdpBlock, SocBlock, get_problem, point_floats, registry
from epflab.report import localize
from epflab.smoothpen import KAPPA_SDP, KAPPA_SOC
from epflab.solvers import SolverConfig, _finite_starts, minimize, polish

CFG = SolverConfig(n_starts=8, seed=0)


def _fake(problem, F):
    """A handle whose F(x, c) is ``F`` itself: its state is a copy of x."""
    return PenaltyHandle(problem, np.copy, F, {})


def _walled(x, c):
    """|x| on toy-lin-1 (minimized at x* = 0, f* = 0) up to c = 7; +inf everywhere above."""
    return math.inf if c > 7.0 else abs(float(x[0]))


def test_geometric_grid():
    grid = geometric_grid(1.0, 8.0, 4)
    assert np.allclose(grid, [1.0, 2.0, 4.0, 8.0])
    # Python floats with the bits of np.geomspace, so every F of a sweep
    # sees a float c, as every bisection c does.
    grid = geometric_grid(0.5, 512.0, 6)
    assert all(type(c) is float for c in grid)
    assert np.array(grid).tobytes() == np.geomspace(0.5, 512.0, 6).tobytes()
    for c_min, c_max in ((2.0, 1.0), (1.0, math.inf), (math.nan, 8.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            geometric_grid(c_min, c_max, 4)


def test_make_penalty_kinds():
    p = get_problem("toy-eq-1")
    for kind in p.penalties:
        handle = make_penalty(p, kind)
        assert math.isfinite(handle(p.certificate.x_star, 2.0))
    with pytest.raises(UnknownProblem):
        make_penalty(p, "bogus")


def test_builders_declare_what_they_read():
    import epflab.cli as cli

    declared = set()
    for kind, build in _BUILDERS.items():
        params = list(inspect.signature(build).parameters.values())[1:]
        assert all(p.kind == p.POSITIONAL_OR_KEYWORD for p in params), kind
        declared.update(p.name for p in params)
    # Every penalty option of the CLI is read by some kind.
    options = {p.name for p in cli._penalty_options(lambda: None).__click_params__}
    assert options - {"problem", "penalty", "seed"} <= declared
    assert {"q", "alpha", "kappa", "zeta1", "zeta2", "lam"} <= declared


UNREAD = [(kind, name) for kind in PENALTY_KINDS
          for name in sorted({n for b in _BUILDERS.values() for n in inspect.signature(b).parameters}
                             - set(inspect.signature(_BUILDERS[kind]).parameters))]


@pytest.mark.parametrize("kind,name", UNREAD)
def test_make_penalty_rejects_unread_parameter(kind, name, monkeypatch):
    import epflab.harness as harness

    def no_build(*args, **kwargs):
        pytest.fail("make_penalty built a penalty from an unread parameter")

    monkeypatch.setitem(harness._BUILDERS, kind, no_build)
    with pytest.raises(ValueError, match=name):
        make_penalty(get_problem("toy-eq-1"), kind, **{name: 1.0})


def test_make_penalty_names_every_unread_parameter():
    with pytest.raises(ValueError, match="q, alpha, lam"):
        make_penalty(get_problem("toy-lin-1"), "linear", q=2.0, alpha=1.0, lam=[1.0])
    # The C1 kinds share their parameters and differ in the default kappa.
    soc, sdp = get_problem("toy-socp-1"), get_problem("toy-sdp-1")
    assert make_penalty(soc, "c1-socp").params["kappa"] == KAPPA_SOC
    assert make_penalty(sdp, "c1-sdp").params["kappa"] == KAPPA_SDP
    assert make_penalty(sdp, "c1-sdp", kappa=3.0).params["kappa"] == 3.0


def test_make_penalty_al_hpr_multiplier_lengths():
    lin, eq, sdp = get_problem("toy-lin-1"), get_problem("toy-eq-1"), get_problem("toy-sdp-1")
    # toy-lin-1: one 2-entry SOC block and no equality; toy-eq-1: one equality only;
    # toy-sdp-1: one 2x2 matrix block, row-major, which must be symmetric.
    for problem, kwargs in ((lin, {"lam": [1.0]}), (lin, {"lam": [1.0, 5.0, 0.0]}),
                            (lin, {"mu": [5.0]}), (eq, {"lam": [0.0]}), (eq, {"mu": [0.0, 0.0]}),
                            (eq, {"mu": []}), (sdp, {"lam": [1.0, 0.0, 0.0]}),
                            (sdp, {"lam": [1.0, 2.0, 0.0, 0.0]}),
                            # Each entry must be finite.
                            (lin, {"lam": [math.nan, 0.0]}), (eq, {"mu": [math.inf]}),
                            (sdp, {"lam": [1.0, 0.0, 0.0, -math.inf]})):
        with pytest.raises(ValueError):
            make_penalty(problem, "al-hpr", **kwargs)
    assert make_penalty(lin, "al-hpr").params == {"lambda_0": -1.0, "lambda_1": 0.0}
    assert make_penalty(lin, "al-hpr", lam=[1.0, 5.0]).params == {"lambda_0": 1.0, "lambda_1": 5.0}
    assert make_penalty(eq, "al-hpr").params == {"mu_0": -2.0}
    handle = make_penalty(eq, "al-hpr", mu=[0.0])
    assert handle.params == {"mu_0": 0.0}
    assert math.isfinite(handle(eq.certificate.x_star, 2.0))
    assert make_penalty(sdp, "al-hpr").params == {"lambda_0": 1.0, "lambda_1": 0.0,
                                                  "lambda_2": 0.0, "lambda_3": 0.0}


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
    broken = _fake(p, lambda x, c: math.inf)
    records = c_sweep(broken, [1.0, 2.0], CFG)
    assert all(r.failed for r in records)


def test_penalty_type_probe_pass_and_fixtures():
    p = get_problem("toy-lin-1")
    records = c_sweep(make_penalty(p, "linear"), [0.5, 1.5, 2.0, 8.0], CFG)
    assert penalty_type_probe(records)

    # Broken penalty F = f - c*phi rewards infeasibility.
    from epflab.penalties import default_phi

    phi = default_phi(p)
    anti = _fake(p, lambda x, c: p.f(x) - c * phi(x))
    assert not penalty_type_probe(c_sweep(anti, [0.5, 1.0, 2.0, 4.0], CFG))

    # Constant positive infeasibility can never reach a zero gap.
    stuck = _fake(p, lambda x, c: p.f(x) + c * 1.0 + float(x[0] ** 2))
    records = c_sweep(stuck, [0.5, 1.0, 2.0, 4.0], CFG)
    # All minimizers sit at x = 0 (feasible), so force the fixture's point
    # of failure: gap stagnation shows up through an infeasible argmin.
    bad = [SweepRecord(c=r.c, best_x=(2.0,), best_F=r.best_F,
                       feasibility_gap_total=2.0, dist_to_xstar=2.0,
                       n_starts_agreeing=1) for r in records]
    assert not penalty_type_probe(bad)

    # A gap growing by more than 10 % fails even when the last gap is zero,
    # and so does a sweep with a failed solve.
    def with_gaps(gaps, failed_at=None):
        return [SweepRecord(c=float(i + 1), best_x=(0.0,), best_F=0.0, feasibility_gap_total=gap,
                            dist_to_xstar=0.0, n_starts_agreeing=1, failed=i == failed_at)
                for i, gap in enumerate(gaps)]

    assert penalty_type_probe(with_gaps([0.5, 0.2, 0.2, 0.0]))
    assert not penalty_type_probe(with_gaps([0.5, 0.2, 0.3, 0.0]))
    assert not penalty_type_probe(with_gaps([0.5, 0.2, 0.2, 0.0], failed_at=1))

    with pytest.raises(ValueError):
        penalty_type_probe(records[:2])


def test_nondegeneracy_probe(monkeypatch):
    p = get_problem("toy-lin-1")
    records = c_sweep(make_penalty(p, "linear"), [0.5, 1.5, 2.0, 8.0], CFG)
    assert harness.NONDEGENERACY_RADIUS == 10.0
    assert nondegeneracy_probe(records)
    failed = [SweepRecord(c=1.0, best_x=(math.nan,), best_F=math.inf,
                          feasibility_gap_total=math.inf, dist_to_xstar=math.inf,
                          n_starts_agreeing=0, failed=True)]
    assert not nondegeneracy_probe(failed)
    # The radius is read at call time.
    monkeypatch.setattr(harness, "NONDEGENERACY_RADIUS", 1.0)
    assert not nondegeneracy_probe(records)  # escape point x = 2 at c = 0.5
    with pytest.raises(ValueError):
        nondegeneracy_probe([])


def test_local_exactness_probe():
    p = get_problem("toy-lin-1")
    pen = make_penalty(p, "linear")
    x_star = p.certificate.x_star
    assert harness.LOCAL_RADIUS == 0.5
    assert local_exactness_probe(pen, x_star, 8.0)
    assert not local_exactness_probe(pen, x_star, 0.5)


def test_local_exactness_c1_socp(monkeypatch):
    p = get_problem("toy-socp-1")
    pen = make_penalty(p, "c1-socp")
    monkeypatch.setattr(harness, "LOCAL_RADIUS", 0.3)
    assert local_exactness_probe(pen, p.certificate.x_star, 1000.0)


def test_sublevel_bounded_probe():
    p = get_problem("toy-socp-1")
    pen = make_penalty(p, "c1-socp")
    assert sublevel_bounded_probe(pen, 10.0, p.certificate.f_star)
    # Non-coercive fixture: big negative values on the shell.
    loose = _fake(p, lambda x, c: -float(np.linalg.norm(x)))
    assert not sublevel_bounded_probe(loose, 10.0, p.certificate.f_star)
    # F = f everywhere with f coercive enough that every shell value
    # beats the optimum: toy-eq-1 has f = ||x||^2 >= 9 on the shell.
    q = get_problem("toy-eq-1")
    coercive = _fake(q, lambda x, c: q.f(x))
    assert sublevel_bounded_probe(coercive, 10.0, q.certificate.f_star)


def _reference_sublevel_bounded_probe(penalty, c0, f_star, seed=0):
    """sublevel_bounded_probe as it was: one draw and one box test per sample."""
    problem = penalty.problem
    lower, upper = problem.box()
    center = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    rng = np.random.default_rng(seed)
    found_shell = 0
    for _ in range(harness.SUBLEVEL_SAMPLES):
        point = center + rng.uniform(-harness.SUBLEVEL_EXPANSION, harness.SUBLEVEL_EXPANSION,
                                     size=problem.dim) * half
        if np.all(point >= lower) and np.all(point <= upper):
            continue
        found_shell += 1
        if penalty(point, c0) < f_star - harness.PROBE_SLACK:
            return False
    return found_shell > 0


@pytest.mark.parametrize("pair", [(p.name, kind) for p in registry() for kind in p.penalties],
                         ids="/".join)
def test_sublevel_probe_matches_per_sample_reference(pair):
    # Same evaluated points, in the same order, and the same verdict.  At
    # c0 = 0.5 toy-lin-1/linear fails (the early exit) and every other pair passes.
    pen = make_penalty(get_problem(pair[0]), pair[1])
    f_star = pen.problem.certificate.f_star
    for seed in range(4):
        seen = {"new": [], "ref": []}

        def recorder(key):
            def func(x, c):
                seen[key].append(np.array(x))
                return pen(x, c)
            return _fake(pen.problem, func)

        verdict = sublevel_bounded_probe(recorder("new"), 0.5, f_star, seed=seed)
        assert verdict == _reference_sublevel_bounded_probe(recorder("ref"), 0.5, f_star, seed=seed)
        assert len(seen["new"]) == len(seen["ref"]) > 0
        assert all(np.array_equal(a, b) for a, b in zip(seen["new"], seen["ref"]))


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
    for c_lo, c_hi in ((4.0, 1.0), (1.0, math.inf), (math.nan, 4.0)):
        with pytest.raises(ValueError):
            estimate_c_star(make_penalty(p, "linear"), c_lo, c_hi, cfg=CFG)
    # With 1 + tol_rel == 1 the bracket never narrows enough and bisection never
    # ends; with 1 + tol_rel == inf it never starts and c* is the bracket's midpoint.
    for tol_rel in (0.0, -0.5, 1e-17, math.inf, math.nan):
        with pytest.raises(ValueError):
            estimate_c_star(make_penalty(p, "linear"), 0.25, 64.0, tol_rel=tol_rel, cfg=CFG)


def test_estimate_c_star_nonmonotone_detection():
    p = get_problem("toy-lin-1")
    # Passes only inside a c window: predicate true near c in [1, 4], false above.
    def tricky(x, c):
        if c > 7.0:
            return float((x[0] - 1.0) ** 2)  # argmin far from x* = 0
        return float(-x[0] + 2.0 * max(0.0, x[0]))
    handle = _fake(p, tricky)
    with pytest.raises(NonMonotonePredicate):
        estimate_c_star(handle, 4.0, 6.0, cfg=CFG)
    # A confirm solve with no finite start (at c = 8) is a failing c too.
    walled = _fake(p, _walled)
    with pytest.raises(NonMonotonePredicate):
        estimate_c_star(walled, 4.0, 6.0, cfg=CFG)


def test_strict_exactness_probe_records_failed_solve():
    p = get_problem("toy-lin-1")
    walled = _fake(p, _walled)
    records = c_sweep(walled, [4.0, 8.0], CFG)
    assert [(r.c, r.passes(p.certificate)) for r in records] == [(4.0, True), (8.0, False)]
    # No c passes from some tested c on: the last one fails.
    assert not records[-1].passes(p.certificate)
    assert records[1].failed
    # The up-set reading of the sweep needs an increasing c list.
    with pytest.raises(ValueError):
        c_sweep(walled, [8.0, 4.0], CFG)


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


def _count_calls(monkeypatch, module, name):
    """Record the first argument after the penalty of every call of ``module.name``."""
    seen = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        seen.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return seen


def test_estimate_c_star_judges_sweep_records_without_solving(monkeypatch):
    p = get_problem("toy-lin-1")
    pen = make_penalty(p, "linear")
    cfg = SolverConfig(n_starts=4, seed=0)
    grid = geometric_grid(0.5, 32.0, 4)
    records = c_sweep(pen, grid, cfg)
    j = max(i for i, r in enumerate(records) if not r.passes(p.certificate))
    plain = estimate_c_star(pen, grid[j], grid[j + 1], cfg=cfg)
    solved = _count_calls(monkeypatch, harness, "_solve_at")
    reused = estimate_c_star(pen, grid[j], grid[j + 1], cfg=cfg, sweep=records[j:j + 2])
    assert reused == plain
    assert reused.history[:2] == ((grid[j + 1], True), (grid[j], False))
    # Every c but the two known ones is solved, in the same order.
    assert solved == [c for c, _ in plain.history[2:]]


def test_estimate_c_star_with_a_failing_known_end_solves_nothing(monkeypatch):
    p = get_problem("toy-lin-1")
    pen = make_penalty(p, "linear")
    cfg = SolverConfig(n_starts=4, seed=0)
    records = c_sweep(pen, [0.25, 0.5], cfg)
    assert not any(r.passes(p.certificate) for r in records)
    solved = _count_calls(monkeypatch, harness, "_solve_at")
    res = estimate_c_star(pen, 0.25, 0.5, cfg=cfg, sweep=records)
    assert res.c_star is None and solved == []
    assert res == estimate_c_star(pen, 0.25, 0.5, cfg=cfg)


def test_localize_reuses_both_bracket_ends_of_its_sweep(monkeypatch):
    p = get_problem("toy-lin-1")
    pen = make_penalty(p, "linear")
    cfg = SolverConfig(n_starts=2, seed=0)
    grid = geometric_grid(0.5, 32.0, 4)
    minimized = _count_calls(monkeypatch, harness, "minimize")
    records = c_sweep(pen, grid, cfg)
    j = max(i for i, r in enumerate(records) if not r.passes(p.certificate))
    # The high end passes, so the bisection solves both ends again when run alone.
    assert records[j + 1].passes(p.certificate)
    estimate_c_star(pen, grid[j], grid[j + 1], cfg=cfg)
    separate = len(minimized)
    minimized.clear()
    localize(p, "linear", cfg=cfg, c_min=0.5, c_max=32.0, c_steps=4)
    assert len(minimized) == separate - 2


def test_localize_local_probe_judges_largest_c(monkeypatch):
    import epflab.report as report

    seen = []
    probe = report.local_exactness_probe

    def record(penalty, x_star, c, **kwargs):
        seen.append(c)
        return probe(penalty, x_star, c, **kwargs)

    monkeypatch.setattr(report, "local_exactness_probe", record)
    p = get_problem("toy-lin-1")
    for steps in (5, 4):
        grid = geometric_grid(0.5, 32.0, steps)
        localize(p, "linear", cfg=SolverConfig(n_starts=2, seed=0), c_min=0.5, c_max=32.0,
                 c_steps=steps)
        assert seen == [grid[-1]]
        seen.clear()


def test_localize_rejects_short_sweep_before_solving(monkeypatch):
    import epflab.report as report

    def no_sweep(*args, **kwargs):
        pytest.fail("localize swept before validating c_steps")

    monkeypatch.setattr(report, "c_sweep", no_sweep)
    with pytest.raises(ValueError):
        localize(get_problem("toy-socp-1"), "c1-socp", cfg=SolverConfig(n_starts=2, seed=0),
                 c_steps=3)


def test_localize_rejects_problem_without_certificate(monkeypatch):
    import epflab.report as report

    def no_sweep(*args, **kwargs):
        pytest.fail("localize swept a problem with no certificate")

    monkeypatch.setattr(report, "c_sweep", no_sweep)
    bare = ConstrainedProblem(name="bare", dim=1, objective=lambda x: float(x[0] ** 2),
                              gradient=lambda x: 2.0 * x,
                              lower=np.array([-1.0]), upper=np.array([1.0]))
    with pytest.raises(ValueError, match="no certificate"):
        localize(bare, "linear", cfg=SolverConfig(n_starts=2, seed=0), c_steps=4)


def test_classic_kinds_raise_on_a_nan_constraint():
    # f = x + 1 >= 0 on [-1, 1]; the SOC block g = (1, x) turns NaN past x = 0.5.
    def g(x):
        return np.array([1.0, x[0]]) if x[0] <= 0.5 else np.full(2, np.nan)

    prob = ConstrainedProblem(name="nan-past-half", dim=1, objective=lambda x: float(x[0] + 1.0),
                              gradient=lambda x: np.ones(1),
                              soc_blocks=(SocBlock(dim=2, g=g, jac=lambda x: np.array([[0.0], [1.0]])),),
                              lower=np.array([-1.0]), upper=np.array([1.0]))
    for kind in ("linear", "qorder", "al-hpr"):
        pen = make_penalty(prob, kind)
        assert math.isfinite(pen(np.array([0.2]), 2.0)), kind
        with pytest.raises(NonFiniteEvaluation):
            pen(np.array([0.7]), 2.0)


def _turns_non_finite_past_half(kind, bad):
    """f = x + 1 >= 0 on [-1, 1] with one constraint block, feasible at
    x <= 0.5 and all ``bad`` past it: an SOC block (1, x) for c1-socp, the
    2x2 block diag(x - 1, -1) <= 0 for every other kind."""
    common = dict(dim=1, objective=lambda x: float(x[0] + 1.0), gradient=lambda x: np.ones(1),
                  lower=np.array([-1.0]), upper=np.array([1.0]))
    if kind == "c1-socp":
        def g(x):
            return np.array([1.0, x[0]]) if x[0] <= 0.5 else np.full(2, bad)

        block = SocBlock(dim=2, g=g, jac=lambda x: np.array([[0.0], [1.0]]))
        return ConstrainedProblem(name="soc-past-half", soc_blocks=(block,), **common)

    def G(x):
        return np.diag([x[0] - 1.0, -1.0]) if x[0] <= 0.5 else np.full((2, 2), bad)

    block = SdpBlock(order=2, G=G, dG=lambda x: [np.diag([1.0, 0.0])])
    return ConstrainedProblem(name="sdp-past-half", sdp_block=block, **common)


@pytest.mark.parametrize("kind", PENALTY_KINDS)
def test_non_finite_constraint_value_raises_typed_error(kind):
    # A NaN or infinite constraint value is a failed evaluation (CLI exit 2),
    # not an input error from the linear algebra underneath.
    for bad in (np.nan, np.inf):
        pen = make_penalty(_turns_non_finite_past_half(kind, bad), kind)
        assert math.isfinite(pen(np.array([0.2]), 2.0)), (kind, bad)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteEvaluation):
            pen(np.array([0.7]), 2.0)


def test_infinite_constraint_value_raises_without_a_numpy_warning():
    # An infinite SOC head and an infinite SDP entry are failed evaluations
    # that raise before any array arithmetic on them could warn.
    socp = get_problem("toy-socp-1")
    block = SocBlock(dim=2, g=lambda x: np.array([np.inf, x[1]]), jac=socp.soc_blocks[0].jac)
    sdp = get_problem("toy-sdp-1")
    sdp_block = SdpBlock(order=2, G=lambda x: np.diag([np.inf, -x[1]]), dG=sdp.sdp_block.dG)
    cases = [(dataclasses.replace(socp, soc_blocks=(block,)), ("linear", "qorder", "c1-socp", "al-hpr")),
             (dataclasses.replace(sdp, sdp_block=sdp_block), ("linear", "qorder", "c1-sdp", "al-hpr"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for problem, kinds in cases:
            for kind in kinds:
                with pytest.raises(NonFiniteEvaluation):
                    make_penalty(problem, kind)(np.array([0.7, 0.3]), 2.0)


@pytest.mark.parametrize("f_star", [0.0, 0.25, 2.0, 3.7])
def test_strict_fail_bound_is_the_largest_rejected_float(f_star):
    bound = harness.strict_fail_bound(f_star)
    assert bound < f_star
    assert not abs(bound - f_star) <= harness.PASS_TOL
    assert abs(math.nextafter(bound, math.inf) - f_star) <= harness.PASS_TOL
    # At 3.7 the rounded f* - PASS_TOL is itself rejected, and is the bound.
    assert (bound == f_star - harness.PASS_TOL) == (f_star == 3.7)
    # Every lower value fails the strict rule, however the subtraction rounds.
    cert = get_problem("toy-lin-1").certificate
    for value in (bound, math.nextafter(bound, -math.inf), bound - 1.0, -math.inf):
        rec = SweepRecord(c=1.0, best_x=(0.0,), best_F=value, feasibility_gap_total=0.0,
                          dist_to_xstar=0.0, n_starts_agreeing=1)
        assert not rec.passes(dataclasses.replace(cert, f_star=f_star))
        assert rec.passes(dataclasses.replace(cert, f_star=f_star), strict=False)


def test_strict_fail_bound_of_a_non_finite_f_star_stops_nothing():
    for f_star in (math.inf, -math.inf, math.nan):
        assert harness.strict_fail_bound(f_star) == -math.inf


def _solve_log(monkeypatch, honor_bound):
    """Replace ``harness._solve_at`` by a spy that records (c, stop_below,
    F calls, best_F) of each solve; without ``honor_bound`` every solve
    runs in full."""
    log = []
    solve = harness._solve_at

    def spy(penalty, c, cfg, stop_below=-math.inf):
        calls = [0]

        def counted(x, c_):
            calls[0] += 1
            return penalty(x, c_)

        handle = _fake(penalty.problem, counted)
        rec = solve(handle, c, cfg, stop_below) if honor_bound else solve(handle, c, cfg)
        log.append((c, stop_below, calls[0], rec.best_F))
        return rec

    monkeypatch.setattr(harness, "_solve_at", spy)
    return log


def _outcome(run):
    """The result of ``run()``, or the NonMonotonePredicate it raised."""
    try:
        return run()
    except NonMonotonePredicate as exc:
        return exc


REGISTRY_PAIRS = [(p.name, kind) for p in registry() for kind in p.penalties]


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name, kind", REGISTRY_PAIRS)
def test_witness_stop_keeps_every_c_star_result(name, kind, strict, monkeypatch):
    p = get_problem(name)
    cfg = SolverConfig(n_starts=3, seed=0)
    outcomes, logs = {}, {}
    for honor in (True, False):
        with monkeypatch.context() as patch:
            logs[honor] = _solve_log(patch, honor)
            outcomes[honor] = _outcome(lambda: estimate_c_star(
                make_penalty(p, kind), 0.5, 1024.0, tol_rel=0.1, cfg=cfg, strict=strict))
    assert repr(outcomes[True]) == repr(outcomes[False])
    assert type(outcomes[True]) is type(outcomes[False])
    new, ref = logs[True], logs[False]
    assert [entry[0] for entry in new] == [entry[0] for entry in ref]
    # Every bisection solve gets the bound; the confirm solve, if any, runs every start.
    bound = harness.strict_fail_bound(p.certificate.f_star) if strict else -math.inf
    confirmed = isinstance(outcomes[True], NonMonotonePredicate) or outcomes[True].c_star is not None
    bisection = len(new) - confirmed
    assert [entry[1] for entry in new] == [bound] * bisection + [-math.inf] * confirmed
    for (_, b, calls, _), (_, _, full, _) in zip(new, ref):
        assert calls == full if b == -math.inf else calls <= full


def test_witness_stop_saves_f_calls_on_failing_strict_steps(monkeypatch):
    p = get_problem("toy-socp-1")
    cfg = SolverConfig(n_starts=6, seed=0)
    polished = _count_calls(monkeypatch, harness, "polish")
    new = _solve_log(monkeypatch, True)
    res = estimate_c_star(make_penalty(p, "linear"), 0.5, 1024.0, cfg=cfg)
    assert res.c_star is not None
    monkeypatch.undo()
    ref = _solve_log(monkeypatch, False)
    assert estimate_c_star(make_penalty(p, "linear"), 0.5, 1024.0, cfg=cfg) == res
    bound = harness.strict_fail_bound(p.certificate.f_star)
    verdict = dict(res.history)
    witnessed = [i for i, entry in enumerate(new) if entry[3] <= bound]
    assert witnessed and all(not verdict[new[i][0]] for i in witnessed)
    # A step that ended at a witness made fewer F calls and no polish; the
    # others, a step failing on its distance to x* among them, ran in full.
    assert [entry[0] for entry in new] == [entry[0] for entry in ref]
    for i, (entry, full) in enumerate(zip(new, ref)):
        assert entry[2] < full[2] if i in witnessed else entry[2] == full[2]
    assert any(not verdict[entry[0]] for i, entry in enumerate(new) if i not in witnessed)
    # A step that a kept witness refuted was not solved; it ran one polish,
    # from that witness, counted apart from the solves' polishes.
    refuted = [c for c, _ in res.history if c not in {entry[0] for entry in new}]
    assert refuted and not any(verdict[c] for c in refuted)
    assert len(polished) == len(new) - len(witnessed) + len(refuted)


def _hidden_basin(x, c):
    """|x| on toy-lin-1 (x* = 0, f* = 0) beside a basin of depth -1 at x = 1.5
    below c = 8: wide up to c = 1, 0.02 wide above, where the starts miss it."""
    if c >= 8.0:
        return abs(float(x[0]))
    return min(abs(float(x[0])), -1.0 + (1.0 if c <= 1.0 else 100.0) * abs(float(x[0]) - 1.5))


def test_a_kept_witness_refutes_a_c_whose_solve_misses_the_basin(monkeypatch):
    p = get_problem("toy-lin-1")
    pen = _fake(p, _hidden_basin)
    cfg = SolverConfig(n_starts=4, seed=0)
    # Solved alone, a c in (1, 8) passes falsely: every start misses the narrow basin.
    assert harness._solve_at(pen, 2.0, cfg).passes(p.certificate)
    assert estimate_c_star(pen, 2.0, 16.0, cfg=cfg).c_star < 7.0
    solved = _count_calls(monkeypatch, harness, "_solve_at")
    polished = _count_calls(monkeypatch, harness, "polish")
    res = estimate_c_star(pen, 0.5, 16.0, cfg=cfg)
    # c = 0.5 fails at the wide basin, and its argmin refutes every c below 8
    # without a solve, each after one polish from a kept witness.
    refuted = [c for c, _ in res.history if c not in solved]
    assert refuted and all(1.0 < c < 8.0 for c in refuted)
    assert not any(ok for c, ok in res.history if c in refuted)
    assert 8.0 / 1.02 <= res.c_star <= 8.0 * 1.02
    assert len(polished) == len(refuted) + sum(1 for c in solved if c >= 8.0)
    # A non-strict bisection keeps no witness.
    solved.clear()
    loose = estimate_c_star(pen, 0.5, 16.0, cfg=cfg, strict=False)
    assert [c for c, _ in loose.history] == solved


def test_sweep_and_localize_run_every_start(monkeypatch):
    p = get_problem("toy-socp-1")
    cfg = SolverConfig(n_starts=3, seed=0)
    bounds = []
    minimize = harness.minimize

    def spy(func, lower, upper, cfg, stop_below=-math.inf):
        bounds.append(stop_below)
        return minimize(func, lower, upper, cfg, stop_below)

    monkeypatch.setattr(harness, "minimize", spy)
    c_sweep(make_penalty(p, "linear"), geometric_grid(0.5, 512.0, 6), cfg)
    assert bounds == [-math.inf] * 6
    bounds.clear()
    # localize's bisection is strict: it alone gets a bound.
    rep = localize(p, "linear", cfg=cfg, c_min=0.5, c_max=512.0, c_steps=6)
    assert bounds[:6] == [-math.inf] * 6 and bounds[-1] == -math.inf
    assert set(bounds[6:-1]) == {harness.strict_fail_bound(p.certificate.f_star)}
    monkeypatch.undo()
    assert localize(p, "linear", cfg=cfg, c_min=0.5, c_max=512.0, c_steps=6) == rep


@pytest.mark.parametrize("name,kind", [("toy-lin-1", "linear"), ("toy-eq-1", "qorder"),
                                       ("toy-socp-1", "c1-socp")])
def test_every_f_call_passes_through_the_handle(name, kind, monkeypatch):
    # perfbench's tracer and tools/ab_pass.py count F at PenaltyHandle.__call__,
    # so the solver's float entry must call the handle, not the memo behind
    # it: a class-level wrapper of __call__ sees every value the handle
    # computes, and in minimize its local solves' nfev plus the screening's calls.
    problem = get_problem(name)
    lower, upper = problem.box()
    cfg = SolverConfig(n_starts=3, seed=4)
    calls = []
    call = PenaltyHandle.__call__
    monkeypatch.setattr(PenaltyHandle, "__call__", lambda self, x, c: calls.append(c) or call(self, x, c))
    handle = make_penalty(problem, kind)
    value, values = handle.value, []
    handle.value = lambda s, c: values.append(c) or value(s, c)

    def counted(run):
        calls.clear()
        values.clear()
        run()
        assert len(calls) == len(values)
        return len(calls)

    c = 3.0
    screened = []
    plain = lambda x: screened.append(x) or value(handle.state(point_floats(problem, x)), c)
    _finite_starts(plain, lower, upper, cfg)
    result = minimize(harness._at(handle, c), lower, upper, cfg)
    assert len(calls) == len(values) == result.nfev + len(screened)
    plain_calls = []
    polish(lambda x: plain_calls.append(x) or plain(x), result.x, lower, upper)
    assert counted(lambda: polish(harness._at(handle, c), result.x, lower, upper)) == len(plain_calls)
    assert counted(lambda: harness._solve_at(handle, 7.0, cfg)) > 0
    assert counted(lambda: estimate_c_star(handle, 0.5, 64.0, tol_rel=0.5, cfg=cfg)) > 0
    assert counted(lambda: local_exactness_probe(handle, problem.certificate.x_star, 64.0)) > 0
    # f settles all of toy-eq-1's shell; elsewhere F is called on part of it.
    shell = counted(lambda: sublevel_bounded_probe(handle, 64.0, problem.certificate.f_star))
    assert (shell == 0) == (name == "toy-eq-1")


def test_the_solver_entry_is_freed_with_its_last_reference():
    # F(., c) holds the handle and its memo; a reference cycle would keep
    # them until the cyclic collector runs, so a long run's peak RSS would
    # grow with its tasks.
    handle = make_penalty(get_problem("toy-eq-1"), "linear")
    gc.disable()
    try:
        func = harness._at(handle, 2.0)
        assert func.on_floats((0.5, 0.5)) == func(np.array([0.5, 0.5]))
        ref = weakref.ref(func)
        del func
        assert ref() is None
    finally:
        gc.enable()
