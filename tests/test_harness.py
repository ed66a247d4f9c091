import dataclasses
import inspect
import math
import warnings

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
from epflab.problems import ConstrainedProblem, SdpBlock, SocBlock, get_problem, registry
from epflab.report import localize
from epflab.smoothpen import KAPPA_SDP, KAPPA_SOC
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
                            (sdp, {"lam": [1.0, 2.0, 0.0, 0.0]})):
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
    broken = PenaltyHandle(problem=p, func=lambda x, c: math.inf, params={})
    records = c_sweep(broken, [1.0, 2.0], CFG)
    assert all(r.failed for r in records)


def test_penalty_type_probe_pass_and_fixtures():
    p = get_problem("toy-lin-1")
    records = c_sweep(make_penalty(p, "linear"), [0.5, 1.5, 2.0, 8.0], CFG)
    assert penalty_type_probe(records)

    # Broken penalty F = f - c*phi rewards infeasibility.
    from epflab.penalties import default_phi

    phi = default_phi(p)
    anti = PenaltyHandle(problem=p,
                         func=lambda x, c: p.f(x) - c * phi(x), params={})
    assert not penalty_type_probe(c_sweep(anti, [0.5, 1.0, 2.0, 4.0], CFG))

    # Constant positive infeasibility can never reach a zero gap.
    stuck = PenaltyHandle(problem=p,
                          func=lambda x, c: p.f(x) + c * 1.0 + float(x[0] ** 2), params={})
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
    assert local_exactness_probe(pen, x_star, 8.0, radius=0.5)
    assert not local_exactness_probe(pen, x_star, 0.5, radius=0.5)


def test_local_exactness_c1_socp():
    p = get_problem("toy-socp-1")
    pen = make_penalty(p, "c1-socp")
    assert local_exactness_probe(pen, p.certificate.x_star, 1000.0, radius=0.3)


def test_sublevel_bounded_probe():
    p = get_problem("toy-socp-1")
    pen = make_penalty(p, "c1-socp")
    assert sublevel_bounded_probe(pen, 10.0, p.certificate.f_star)
    # Non-coercive fixture: big negative values on the shell.
    loose = PenaltyHandle(problem=p,
                          func=lambda x, c: -float(np.linalg.norm(x)), params={})
    assert not sublevel_bounded_probe(loose, 10.0, p.certificate.f_star)
    # F = f everywhere with f coercive enough that every shell value
    # beats the optimum: toy-eq-1 has f = ||x||^2 >= 9 on the shell.
    q = get_problem("toy-eq-1")
    coercive = PenaltyHandle(problem=q, func=lambda x, c: q.f(x), params={})
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
            return PenaltyHandle(problem=pen.problem, func=func, params={})

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
    handle = PenaltyHandle(problem=p, func=tricky, params={})
    with pytest.raises(NonMonotonePredicate):
        estimate_c_star(handle, 4.0, 6.0, cfg=CFG)
    # A confirm solve with no finite start (at c = 8) is a failing c too.
    walled = PenaltyHandle(problem=p, func=_walled, params={})
    with pytest.raises(NonMonotonePredicate):
        estimate_c_star(walled, 4.0, 6.0, cfg=CFG)


def test_strict_exactness_probe_records_failed_solve():
    p = get_problem("toy-lin-1")
    walled = PenaltyHandle(problem=p, func=_walled, params={})
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
