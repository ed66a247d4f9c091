import dataclasses
import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from epflab.harness import SweepRecord, c_sweep, estimate_c_star, geometric_grid, make_penalty
from epflab.problems import get_problem
from epflab.report import (
    ExactnessReport,
    localize,
    parse_report,
    serialize_report,
    sweep_to_csv,
)
from epflab.solvers import SolverConfig

CFG = SolverConfig(n_starts=8, seed=0)


def _report():
    return localize(get_problem("toy-lin-1"), "linear", cfg=CFG, c_min=0.5, c_max=32.0, c_steps=6)


def test_localize_passes_on_toy_lin():
    rep = _report()
    assert rep.all_passed
    assert rep.c_star is not None and rep.c_star <= 1000.0
    assert len(rep.evidence) == 6


def test_round_trip():
    rep = _report()
    assert parse_report(serialize_report(rep)) == rep


def test_round_trip_preserves_nonfinite():
    rec = SweepRecord(c=1.0, best_x=(math.nan,), best_F=math.inf,
                      feasibility_gap_total=math.inf, dist_to_xstar=math.inf,
                      n_starts_agreeing=0, failed=True)
    rep = ExactnessReport(problem="toy-lin-1", penalty="linear", params=(), seed=0,
                          c_star=None, penalty_type=False, nondegenerate=False,
                          local_exact=False, sublevel_bounded=False, evidence=(rec,))
    back = parse_report(serialize_report(rep))
    assert math.isinf(back.evidence[0].best_F)
    assert math.isnan(back.evidence[0].best_x[0])
    assert back.c_star is None


def test_serialization_deterministic():
    r1, r2 = _report(), _report()
    assert serialize_report(r1) == serialize_report(r2)


def test_serialized_report_keys():
    import json

    doc = json.loads(serialize_report(_report()))
    assert set(doc["verdicts"]) == {"penalty_type", "nondegenerate", "local_exact", "sublevel_bounded"}
    assert "c_star" in doc and "evidence" in doc
    # 17 significant digits survive parsing exactly.
    rep = _report()
    assert json.loads(serialize_report(rep))["c_star"] == rep.c_star


# SHA-256 of the report bytes at seed 0, 4 starts and a 6-point grid on
# [0.5, 512], recorded before F was split into a memoized state and a
# c-dependent value; the two toy-socp pairs were recorded before the SOC
# and SDP c1 stages were folded into one.  toy-socp-2 is the pair whose
# c1 value has both an SOC block and an equality term.  A speed change or
# a refactor must leave these bytes alone.  toy-socp-1/c1-socp was
# re-recorded when a strict bisection began to refute a c by a kept witness:
# c* went from 1.5506, a false pass below the 16-start value 1.6829, to 1.6727.
_REPORT_SHA256 = {
    ("toy-lin-1", "linear"): "b0eacf0c20ecad74d62a3df2b1b91368a9928c14cf10e004a3a839a5f23b1bef",
    ("toy-eq-1", "qorder"): "c29b0237956b3b8c78bdc9aa0c57e8d216419890eb693edf6d10eca2e96a0ce5",
    ("toy-eq-1", "c1-socp"): "810b5dbb6e3d34aefc4df5fe804bde5c07efc08a25390babd7c8eec68d3c4edf",
    ("toy-socp-1", "c1-socp"): "e1a614d26dd0fd9491de7b19b56750be4dc9bacde39ecd49c2e576ba45b085db",
    ("toy-socp-2", "c1-socp"): "a5a761972537ac2f1e64d469b2ec0bb4b0be24d020c42a63346f20931999cecc",
    ("toy-sdp-1", "c1-sdp"): "0e9b40d55c023a7281b2e83281a3124b74f4c4fbba6870e42f8247021faa4d91",
}


@pytest.mark.parametrize("pair", list(_REPORT_SHA256), ids="/".join)
def test_report_bytes_are_pinned(pair):
    problem, kind = pair
    rep = localize(get_problem(problem), kind, cfg=SolverConfig(n_starts=4, seed=0),
                   c_min=0.5, c_max=512.0, c_steps=6)
    digest = hashlib.sha256(serialize_report(rep).encode("utf-8")).hexdigest()
    assert digest == _REPORT_SHA256[pair]


# SHA-256 of the estimate_c_star answer (c*, the bisection history and the
# confirmation record, floats by float.hex) at seed 0, 4 starts, strict, on
# [0.5, 1024] for the four C1 pairs, recorded before the C1 hot path moved
# from numpy arrays onto floats.  A speed change must leave these alone.
# toy-socp-1/c1-socp was re-recorded with witness chaining: c* went from
# 1.5391, a false pass, to 1.6829.
_CSTAR_SHA256 = {
    ("toy-eq-1", "c1-socp"): "3804d840d6d3ce48d162c163daf80ee4801511ac11d1a9b3a3d86d08a313e14d",
    ("toy-socp-1", "c1-socp"): "62d9d3f956ed32d7a3ac33a3db74e7a558bc18ba6805eefdd8beb2ce495f42a7",
    ("toy-socp-2", "c1-socp"): "aa83405cd6231ab813feaf380c4594144a9cfabf035b4dece7c816a37da7dec3",
    ("toy-sdp-1", "c1-sdp"): "0a02b7f9e1fcc1535a1c1c39c3c21b779583e18f548d6fa5c4fe39d4fe100517",
}


def _cstar_answer(res) -> str:
    rec = res.confirm
    confirm = None if rec is None else (
        rec.c.hex(), [float(v).hex() for v in rec.best_x], rec.best_F.hex(),
        rec.feasibility_gap_total.hex(), rec.dist_to_xstar.hex(), rec.n_starts_agreeing,
        rec.failed)
    return repr((None if res.c_star is None else res.c_star.hex(),
                 [(float(c).hex(), ok) for c, ok in res.history], confirm))


@pytest.mark.parametrize("pair", list(_CSTAR_SHA256), ids="/".join)
def test_estimate_c_star_answers_are_pinned(pair):
    problem, kind = pair
    res = estimate_c_star(make_penalty(get_problem(problem), kind), 0.5, 1024.0,
                          cfg=SolverConfig(n_starts=4, seed=0))
    digest = hashlib.sha256(_cstar_answer(res).encode("utf-8")).hexdigest()
    assert digest == _CSTAR_SHA256[pair]


def test_sweep_csv_format():
    p = get_problem("toy-eq-1")
    records = c_sweep(make_penalty(p, "linear"), geometric_grid(1.0, 8.0, 4), CFG)
    text = sweep_to_csv(records, p.dim)
    lines = text.strip().split("\n")
    assert lines[0] == "c,best_F,best_x_0,best_x_1,feas_gap,dist_to_xstar,starts_agreeing"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert first[-1].isdigit()


# Signed zeros, subnormals, the extremes, values that need all 17 digits,
# infinities and NaN, besides whatever hypothesis draws.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0, 1e16, -1e16,
                math.inf, -math.inf, math.nan]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


@st.composite
def _reports(draw):
    records = draw(st.lists(st.builds(
        SweepRecord, c=_floats, best_x=st.lists(_floats, max_size=3).map(tuple), best_F=_floats,
        feasibility_gap_total=_floats, dist_to_xstar=_floats,
        n_starts_agreeing=st.integers(0, 64), failed=st.booleans()), max_size=4))
    params = draw(st.dictionaries(st.text(max_size=8), _floats, max_size=4))
    return ExactnessReport(
        problem=draw(st.text(max_size=12)), penalty=draw(st.text(max_size=12)),
        params=tuple(sorted(params.items())), seed=draw(st.integers(0, 2 ** 64)),
        c_star=draw(st.none() | _floats), penalty_type=draw(st.booleans()),
        nondegenerate=draw(st.booleans()), local_exact=draw(st.booleans()),
        sublevel_bounded=draw(st.booleans()), evidence=tuple(records))


def _bits(v):
    """Every field with each float as its exact bits (any NaN as "nan") and
    every other value with its type."""
    if isinstance(v, float):
        return "nan" if math.isnan(v) else v.hex()
    if isinstance(v, tuple):
        return tuple(_bits(u) for u in v)
    if dataclasses.is_dataclass(v):
        return tuple((f.name, _bits(getattr(v, f.name))) for f in dataclasses.fields(v))
    return type(v).__name__, v


@settings(deadline=None, max_examples=300)
@given(_reports())
def test_report_round_trip_bit_for_bit(rep):
    text = serialize_report(rep)
    back = parse_report(text)
    assert _bits(back) == _bits(rep)
    assert serialize_report(back) == text
