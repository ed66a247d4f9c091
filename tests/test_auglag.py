import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epflab.auglag import hpr_closed_form
from epflab.cones import dist_lorentz, proj_lorentz, proj_psd
from epflab.errors import DimensionMismatch, NonFiniteEvaluation
from epflab.harness import c_sweep, estimate_c_star, make_penalty
from epflab.problems import flat_multipliers, get_problem, registry
from epflab.solvers import SolverConfig
from paper_checks import (
    SAMPLE_FEASIBLE,
    UnboundedBelow,
    al_eval_grid,
    equality_parameterization,
    flat_tail_augmenting,
    half_norm_squared,
    inequality_parameterization,
    norm_augmenting,
    valley_check,
)


def test_dualizing_param_zero_is_f():
    p = get_problem("toy-eq-1")
    dual = equality_parameterization(p)
    x = p.certificate.x_star
    assert dual(x, np.zeros(1)) == pytest.approx(p.f(x), abs=1e-8)


def test_al_grid_equality_at_optimum():
    p = get_problem("toy-eq-1")
    dual = equality_parameterization(p)
    value, argmin = al_eval_grid(dual, half_norm_squared, p.certificate.x_star, np.array([-2.0]),
                                 4.0, [-8.0], [8.0])
    assert value == pytest.approx(2.0, abs=1e-6)
    assert abs(argmin[0]) <= 1e-3


def test_al_grid_equality_off_optimum():
    # f + <lam, h> + (c/2) h^2 at x = 0: 0 + (-2)(-2) + 2*4 = 12.
    p = get_problem("toy-eq-1")
    dual = equality_parameterization(p)
    value, _ = al_eval_grid(dual, half_norm_squared, np.zeros(2), np.array([-2.0]), 4.0, [-8.0], [8.0])
    assert value == pytest.approx(12.0, abs=1e-5)


def test_al_grid_matches_hpr_inequality():
    # toy-lin-1's flat block g = (-u, 0) is the scalar inequality u(x) = x <= 0;
    # its multiplier l >= 0 is the SOC multiplier (-l, 0).
    p = get_problem("toy-lin-1")
    u = lambda x: np.array([-float(p.soc_blocks[0].g(x)[0])])
    dual = inequality_parameterization(u, p.f)
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-2, 2, size=1)
        lam = rng.uniform(0, 4, size=1)
        c = float(rng.uniform(0.5, 8.0))
        gv, _ = al_eval_grid(dual, half_norm_squared, x, lam, c, [-8.0], [8.0], n_per_axis=81)
        cf = hpr_closed_form(p, x, lam=[np.array([-lam[0], 0.0])], c=c)
        assert abs(gv - cf) <= 1e-6 * (1.0 + abs(cf))


def test_al_grid_unbounded_detection():
    dual = lambda x, p: float(p[0])  # linear in p
    # sigma = 0 surrogate leaves the inner objective unbounded below.
    zero_sigma = lambda p: 0.0
    with pytest.raises(UnboundedBelow):
        al_eval_grid(dual, zero_sigma, np.zeros(1), np.array([2.0]), 1.0, [-4.0], [4.0])


def test_al_grid_dimension_cap():
    dual = lambda x, p: float(p @ p)
    with pytest.raises(ValueError):
        al_eval_grid(dual, half_norm_squared, np.zeros(1), np.zeros(4), 1.0, -np.ones(4), np.ones(4))


def test_hpr_closed_form_rejects_malformed_multipliers():
    # numpy would broadcast each of these into a wrong value.
    sdp, soc = get_problem("toy-sdp-1"), get_problem("toy-socp-1")
    x = np.array([0.5, 1.0])
    for kwargs in ({"lam_sdp": np.ones((1, 2))}, {"lam_sdp": np.ones((1, 1))}):
        with pytest.raises(DimensionMismatch):
            hpr_closed_form(sdp, x, **kwargs)
    for lam in ([np.ones(1)], [np.ones(3)], [], [np.zeros(2), np.zeros(2)]):
        with pytest.raises(DimensionMismatch):
            hpr_closed_form(soc, x, lam=lam)
    # numpy's matmul would raise ValueError on (2,) and float() TypeError on (1, 1).
    eq = get_problem("toy-eq-1")
    for mu in (np.ones(2), np.ones((1, 1))):
        with pytest.raises(DimensionMismatch):
            hpr_closed_form(eq, x, mu=mu)
    # toy-lin-1 has no equality, so it has no mu to read.
    with pytest.raises(DimensionMismatch):
        hpr_closed_form(get_problem("toy-lin-1"), np.array([0.5]), mu=[5.0])
    assert hpr_closed_form(eq, x, mu=-2.0) == hpr_closed_form(eq, x, mu=np.array([-2.0]))


def test_hpr_closed_form_takes_list_multipliers():
    # Lists are read as kkt_residual reads them, one float array each.
    lin, x_lin = get_problem("toy-lin-1"), np.array([0.5])
    assert (hpr_closed_form(lin, x_lin, lam=[[-1.0, 0.0]], c=2.0)
            == hpr_closed_form(lin, x_lin, lam=[np.array([-1.0, 0.0])], c=2.0))
    sdp, x_sdp = get_problem("toy-sdp-1"), np.array([0.75, 1.5])
    assert (hpr_closed_form(sdp, x_sdp, lam_sdp=[[1.0, 0.0], [0.0, 0.0]], c=3.0)
            == hpr_closed_form(sdp, x_sdp, lam_sdp=np.diag([1.0, 0.0]), c=3.0))
    with pytest.raises(DimensionMismatch):
        hpr_closed_form(lin, x_lin, lam=[[-1.0]])
    with pytest.raises(DimensionMismatch):
        hpr_closed_form(sdp, x_sdp, lam_sdp=[[1.0, 0.0]])


def test_hpr_closed_form_examples():
    p = get_problem("toy-eq-1")
    assert hpr_closed_form(p, np.array([1.0, 1.0]), mu=np.array([-2.0]), c=7.0) == pytest.approx(2.0)
    assert hpr_closed_form(p, np.zeros(2), mu=np.array([-2.0]), c=4.0) == pytest.approx(12.0)
    pl = get_problem("toy-lin-1")
    # f(1) = -1 plus (1/4)[0 + 2*1]_+^2 = 1.
    assert hpr_closed_form(pl, np.array([1.0]), lam=[np.zeros(2)], c=2.0) == pytest.approx(0.0)


def _array_hpr(problem, x, lam, mu, c):
    """hpr_closed_form without an SDP block, each SOC term on the array
    lam_i + c * g_i(x); NonFiniteEvaluation on NaN."""
    value = problem.f(x)
    for block, lam_i in zip(problem.soc_blocks, lam):
        d = dist_lorentz(lam_i + c * np.asarray(block.g(x), dtype=float))
        value += (d * d - float(lam_i @ lam_i)) / (2.0 * c)
    if problem.n_eq > 0:
        h_val = problem.h(x)
        value += float(mu @ h_val) + 0.5 * c * float(h_val @ h_val)
    if math.isnan(value):
        raise NonFiniteEvaluation("NaN")
    return float(value)


def _outcome(func, *args):
    try:
        return struct.pack("<d", func(*args))
    except NonFiniteEvaluation:
        return "NaN"


_ENTRIES = st.one_of(st.floats(-5.0, 5.0), st.floats(-1e6, 1e6),
                     st.sampled_from([0.0, -0.0, 1e200, -1e200, 1.7976931348623157e308]))


@settings(deadline=None, max_examples=300)
@given(st.lists(_ENTRIES, min_size=6, max_size=6), st.floats(1e-3, 1e6))
def test_hpr_soc_terms_on_floats_have_the_array_bits(entries, c):
    # c as a Python float and as the numpy scalar a geometric grid holds.
    for p in registry():
        if p.sdp_block is not None:
            continue
        x = np.array(entries[:p.dim])
        lam = [np.array(entries[2:2 + block.dim]) for block in p.soc_blocks]
        mu = np.array(entries[4:4 + p.n_eq])
        with np.errstate(all="ignore"):
            want = _outcome(_array_hpr, p, x, lam, mu, c)
        for c_val in (c, np.float64(c)):
            with np.errstate(all="ignore"):
                got = _outcome(hpr_closed_form, p, x, lam, None, mu, c_val)
            assert got == want, (p.name, entries, c_val)


def test_hpr_nondecreasing_in_c_and_weak_duality():
    p = get_problem("toy-eq-1")
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-3, 3, size=2)
        lam = rng.uniform(-3, 3, size=1)
        c1 = float(rng.uniform(0.2, 4.0))
        c2 = c1 * 2.0
        assert hpr_closed_form(p, x, mu=lam, c=c2) >= hpr_closed_form(p, x, mu=lam, c=c1) - 1e-12
    for _ in range(20):
        x = SAMPLE_FEASIBLE[p.name](rng)
        lam = rng.uniform(-3, 3, size=1)
        assert hpr_closed_form(p, x, mu=lam, c=1.0) <= p.f(x) + 1e-9


def test_hpr_kkt_anchor():
    # With the certificate's multipliers the augmented Lagrangian equals f* at x*.
    for p in registry():
        cert = p.certificate
        for c in (0.5, 1.0, 10.0, 100.0):
            value = hpr_closed_form(p, cert.x_star, lam=cert.lambda_star,
                                    lam_sdp=cert.lambda_sdp_star, mu=cert.mu_star, c=c)
            assert value == pytest.approx(cert.f_star, abs=1e-12), (p.name, c)
            assert make_penalty(p, "al-hpr")(cert.x_star, c) == value, (p.name, c)


def _symmetrized(a):
    return 0.5 * (a + a.T) if a.ndim == 2 else a


@pytest.mark.parametrize("name", ["toy-socp-1", "toy-sdp-1"])
def test_hpr_closed_form_is_inner_infimum(name):
    # The closed form is the inner infimum over p with g(x) + p in K of
    # f - <lam, p> + (c/2)||p||^2, attained at p* = proj_K(g + lam/c) - g.
    # toy-socp-1 has K = Q_2; toy-sdp-1 has G(x) in K = -S+, so proj_K(A) = A - [A]_+.
    p = get_problem(name)
    if p.soc_blocks:
        cone_value, project = p.soc_blocks[0].g, proj_lorentz
    else:
        cone_value, project = p.sdp_block.G, lambda a: a - proj_psd(a)
    lo, hi = p.box()
    rng = np.random.default_rng(5)
    for _ in range(2000):
        x = lo + rng.uniform(size=p.dim) * (hi - lo)
        g = np.asarray(cone_value(x), dtype=float)
        lam = _symmetrized(rng.uniform(-4, 4, size=g.shape))
        c = float(np.exp(rng.uniform(-2, 5)))

        def inner(pert):
            return p.f(x) - float(np.sum(lam * pert)) + 0.5 * c * float(np.sum(pert * pert))

        multipliers = {"lam": [lam]} if p.soc_blocks else {"lam_sdp": lam}
        cf = hpr_closed_form(p, x, c=c, **multipliers)
        p_star = project(g + lam / c) - g
        scale = (1.0 + abs(p.f(x)) + abs(float(np.sum(lam * p_star)))
                 + 0.5 * c * float(np.sum(p_star * p_star)))
        assert abs(cf - inner(p_star)) <= 1e-12 * scale, (x, lam, c)
        for _ in range(20):
            # A point of K near the minimizer, or farther away.
            noise = _symmetrized(rng.normal(scale=rng.choice([1e-3, 1e-1, 2.0]), size=g.shape))
            q = project(g + p_star + noise)
            assert inner(q - g) >= cf - 1e-12 * scale, (x, lam, c)


@pytest.mark.parametrize("name", ["toy-socp-1", "toy-socp-2", "toy-sdp-1"])
def test_al_hpr_c_star_on_cone_problems(name):
    # On these convex problems the augmented Lagrangian at the certificate's
    # multipliers is exact for every c > 0; with zero multipliers it is the
    # quadratic penalty, which is exact at no finite c.
    p = get_problem(name)
    cfg = SolverConfig(n_starts=8, seed=0)
    res = estimate_c_star(make_penalty(p, "al-hpr"), 0.5, 1024.0, cfg=cfg, strict=True)
    assert res.c_star == 0.5
    zero = make_penalty(p, "al-hpr", lam=flat_multipliers(p), mu=np.zeros(p.n_eq))
    assert estimate_c_star(zero, 0.5, 1024.0, cfg=cfg, strict=True).c_star is None


def test_valley_check_fixtures():
    assert valley_check(half_norm_squared, [0.5, 1.0], p_dim=2)
    assert valley_check(norm_augmenting, [0.5, 1.0], p_dim=2)
    assert not valley_check(flat_tail_augmenting, [0.5, 1.0], p_dim=1)
    with pytest.raises(ValueError):
        valley_check(half_norm_squared, [1.0, 0.5])


def test_strict_exactness_probe_true_multiplier():
    # The strict-exactness probe: an al-hpr sweep judged by SweepRecord.passes.
    p = get_problem("toy-eq-1")
    records = c_sweep(make_penalty(p, "al-hpr", mu=p.certificate.mu_star), [1.0, 4.0, 16.0],
                      SolverConfig(n_starts=8, seed=0))
    # Some c <= 16 passes along with every larger tested c: the last one, 16, passes.
    assert records[-1].passes(p.certificate)


def test_strict_exactness_probe_zero_multiplier():
    p = get_problem("toy-eq-1")
    records = c_sweep(make_penalty(p, "al-hpr", mu=np.zeros(1)), [1.0, 4.0],
                      SolverConfig(n_starts=8, seed=0))
    # Quadratic penalty alone is never exact at finite c: no c passes, so none
    # passes from some c on.
    assert all(not r.passes(p.certificate) for r in records)
    assert not records[-1].passes(p.certificate)
