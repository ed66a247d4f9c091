import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from epflab.cones import dist_lorentz, dist_psd_minus, proj_lorentz, proj_psd
from epflab.numerics import MAX_ORDER
from paper_checks import LORENTZ_MEMBER_TOL, in_lorentz, in_psd_minus, moreau_check, reference_norm


def test_proj_interior_fixed():
    y = np.array([1.0, 0.0])
    assert np.allclose(proj_lorentz(y), y)


def test_proj_polar_to_origin():
    assert np.allclose(proj_lorentz(np.array([-1.0, 0.0, 0.0])), 0.0)


def test_proj_generic_closed_form():
    out = proj_lorentz(np.array([0.0, 2.0]))
    assert np.allclose(out, [1.0, 1.0])


def test_proj_generic_vs_grid():
    # Dense sampling of the cone must not find anything closer.
    y = np.array([0.0, 2.0])
    p = proj_lorentz(y)
    best = math.inf
    for head in np.linspace(0.0, 4.0, 400):
        for tail in np.linspace(-head, head, 161):
            best = min(best, np.linalg.norm(y - np.array([head, tail])))
    assert np.linalg.norm(y - p) <= best + 1e-3


def test_proj_boundary_ray_tiebreak():
    # head = -||tail||: classified polar, projects to the origin.
    assert np.allclose(proj_lorentz(np.array([-2.0, 2.0])), 0.0)


# Anything that is not 1-D with at least 2 entries: 0-d, too short, 2-D, 3-D.
_NOT_LORENTZ_POINTS = [3.0, np.float64(3.0), np.array(3.0), np.array([1.0]), np.zeros(0),
                       np.array([[1.0, 2.0]]), np.array([[1.0], [2.0]]), np.eye(2),
                       np.zeros((2, 0)), np.zeros((2, 3, 4))]


def test_proj_rejects_scalar():
    for y in _NOT_LORENTZ_POINTS:
        with pytest.raises(ValueError, match="Lorentz point"):
            proj_lorentz(y)


def test_dist_examples():
    assert dist_lorentz(np.array([5.0, 3.0])) == 0.0
    assert abs(dist_lorentz(np.array([-1.0, 0.0, 0.0])) - 1.0) <= 1e-15
    assert abs(dist_lorentz(np.array([0.0, 2.0])) - math.sqrt(2.0)) <= 1e-12


def test_dist_zero_iff_member():
    rng = np.random.default_rng(3)
    for _ in range(200):
        y = rng.normal(size=int(rng.integers(2, 7)))
        member = in_lorentz(y)
        assert (dist_lorentz(y) <= 1e-12) == member


def test_moreau_examples():
    for y in ([1.0, 0.0], [0.0, 2.0], [-1.0, 0.0, 0.0]):
        assert moreau_check(np.array(y)) <= 1e-10


def test_moreau_orthogonality():
    rng = np.random.default_rng(5)
    for _ in range(500):
        y = rng.normal(size=int(rng.integers(2, 7))) * 3.0
        plus = proj_lorentz(y)
        minus = -proj_lorentz(-y)
        assert abs(float(plus @ minus)) <= 1e-10 * (1.0 + y @ y)


def test_proj_idempotent_and_nonexpansive():
    rng = np.random.default_rng(11)
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        a = rng.normal(size=dim) * 2.0
        b = rng.normal(size=dim) * 2.0
        pa, pb = proj_lorentz(a), proj_lorentz(b)
        assert np.linalg.norm(proj_lorentz(pa) - pa) <= 1e-12
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) * (1.0 + 1e-12)


def _lorentz_points(bound: float):
    """Finite vectors of length 2-6 with entries in [-bound, bound]."""
    return arrays(np.float64, st.integers(2, 6),
                  elements=st.floats(-bound, bound, allow_nan=False, allow_infinity=False))


def _scale(y) -> float:
    return 1.0 + float(np.linalg.norm(y))


@settings(deadline=None)
@given(_lorentz_points(1e6))
def test_proj_lorentz_lands_in_the_cone(y):
    # The cone is scale invariant; at unit scale the member tolerance is a relative one.
    assert in_lorentz(proj_lorentz(y) / _scale(y))


@settings(deadline=None)
@given(_lorentz_points(1e6))
def test_proj_lorentz_is_idempotent(y):
    p = proj_lorentz(y)
    assert np.linalg.norm(proj_lorentz(p) - p) <= 1e-12 * _scale(y)


@settings(deadline=None)
@given(_lorentz_points(1e6))
def test_moreau_residual_vanishes(y):
    assert moreau_check(y) <= 1e-12 * _scale(y)


@settings(deadline=None)
@given(_lorentz_points(1.0))
def test_dist_lorentz_zero_exactly_at_members(y):
    # At unit scale: a member is within the member tolerance of the cone,
    # and a point at distance 0 is a member.
    if in_lorentz(y):
        assert dist_lorentz(y) <= LORENTZ_MEMBER_TOL
    if dist_lorentz(y) == 0.0:
        assert in_lorentz(y)


def test_proj_psd_examples():
    assert np.allclose(proj_psd(np.eye(3)), np.eye(3))
    assert np.allclose(proj_psd(np.diag([2.0, -3.0])), np.diag([2.0, 0.0]))
    out = proj_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, 0.5 * np.ones((2, 2)), atol=1e-10)


def test_psd_distance_identity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1, 1, size=(n, n))
        a = 0.5 * (a + a.T)
        plus = proj_psd(a)
        assert abs(dist_psd_minus(a) ** 2 - np.trace(plus @ plus)) <= 1e-8


def test_dist_psd_minus_nonfinite_is_nan():
    # Also where only the symmetrization overflows; a bad shape or order
    # still raises.
    for a in ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]],
              [[1e308, 1e308], [1e308, 1.0]]):
        with np.errstate(over="ignore"):
            assert math.isnan(dist_psd_minus(np.array(a)))
    with pytest.raises(ValueError):
        dist_psd_minus(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        dist_psd_minus(np.eye(MAX_ORDER + 1))


def test_psd_overflow_examples():
    # Finite matrices whose clipped eigenvalues have a sum of squares above
    # the largest float: the order-2 fallback to LAPACK, and order 3.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = np.array([[0.0, 1.7976931348623157e308], [0.0, 0.0]])
        assert dist_psd_minus(a) == 8.988465674311578e307
        a = np.diag([1e200, 1e200, -1.0])
        assert dist_psd_minus(a) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)


def test_in_psd_minus():
    assert in_psd_minus(-np.eye(2))
    assert not in_psd_minus(np.diag([1.0, -1.0]))


def _reference_dist_lorentz(y):
    """dist_lorentz as it was before its closed form: ||y - proj_lorentz(y)||."""
    y = np.asarray(y, dtype=float)
    return reference_norm(y - proj_lorentz(y))


def _same_float(a: float, b: float) -> bool:
    """Bit equality, sign of zero included; any NaN equals any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# Magnitudes whose square overflows or underflows, or nearly does.
_EXTREME = [1e200, -1e200, 1.4e154, -1.3e154, 1e-200, -1e-200, 1.5e-154, 1.5e-162, 5e-324,
            -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def _lorentz_edge_points(draw):
    # Signed zeros and infinities in the tail, a zero tail, a head on either
    # boundary ray head = +-||tail||, and one-entry tails whose square
    # overflows or underflows.
    entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                        st.floats(-1e6, 1e6))
    if draw(st.booleans()):
        tail = np.array([draw(st.one_of(st.sampled_from(_EXTREME), st.floats()))])
        entries = st.one_of(entries, st.sampled_from(_EXTREME), st.floats())
    else:
        tail = draw(arrays(np.float64, st.integers(1, 5), elements=entries))
    if draw(st.booleans()):
        tail = np.copysign(0.0, tail)
    with np.errstate(all="ignore"):
        norm = math.sqrt(tail @ tail)
    head = draw(st.one_of(st.sampled_from([norm, -norm, 0.0, -0.0]), entries))
    return np.concatenate(([head], tail))


@settings(deadline=None, max_examples=500)
@given(_lorentz_edge_points())
def test_dist_lorentz_matches_projection_reference(y):
    with np.errstate(all="ignore"):
        assert _same_float(dist_lorentz(y), _reference_dist_lorentz(y))


def test_dist_lorentz_rejects_scalar():
    for y in _NOT_LORENTZ_POINTS:
        with pytest.raises(ValueError, match="Lorentz point"):
            dist_lorentz(y)


# An infinite tail entry makes the tail norm inf and the generic case's
# coef / ||tail|| NaN; a NaN head or tail entry gives NaN too.
_NAN_RESULTS = [([1.0, math.inf], [math.inf, math.nan]),
                ([1.0, -math.inf], [math.inf, math.nan]),
                ([1.0, math.inf, 1.0], [math.inf, math.nan, math.nan]),
                ([0.0, 1.0, -math.inf], [math.inf, math.nan, math.nan]),
                ([math.nan, 0.0], [math.nan, math.nan]),
                ([math.nan, 0.0, 0.0], [math.nan, math.nan, math.nan]),
                ([1.0, math.nan], [math.nan, math.nan])]


@pytest.mark.parametrize("y,projection", _NAN_RESULTS, ids=str)
def test_nonfinite_tail_gives_nan_without_a_warning(y, projection):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(dist_lorentz(np.array(y)))
        out = proj_lorentz(np.array(y))
    assert np.array_equal(out, projection, equal_nan=True)


# proj_lorentz and dist_lorentz as they were before overflowing sums of
# squares were rescaled: the frozen reference wherever no sum overflows.
def _proj_lorentz_unscaled(y):
    head, tail = y[0], y[1:]
    tail_norm = math.sqrt(tail @ tail)
    if head >= tail_norm:
        return y.copy()
    if head <= -tail_norm:
        return np.zeros_like(y)
    coef = 0.5 * (head + tail_norm)
    out = np.empty_like(y)
    out[0] = coef
    out[1:] = (coef / tail_norm) * tail
    return out


def _dist_lorentz_unscaled(y):
    head, tail = y[0], y[1:]
    tail_norm = math.sqrt(tail @ tail)
    if head >= tail_norm:
        return 0.0
    if head <= -tail_norm:
        gap = y
    else:
        coef = 0.5 * (head + tail_norm)
        gap = y - (coef / tail_norm) * y
        gap[0] = head - coef
    return math.sqrt(gap @ gap)


def _moderate_points():
    """Lorentz points whose sums of squares cannot overflow, with signed
    zeros and boundary rays."""
    entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False))
    return arrays(np.float64, st.integers(2, 6), elements=entries)


@settings(deadline=None, max_examples=300)
@given(_moderate_points(), st.sampled_from([None, 1.0, -1.0]))
def test_lorentz_bits_unchanged_where_no_sum_of_squares_overflows(y, ray):
    if ray is not None:  # a head on a boundary ray head = +-||tail||
        y[0] = ray * math.sqrt(y[1:] @ y[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same_float(dist_lorentz(y), _dist_lorentz_unscaled(y))
        assert proj_lorentz(y).tobytes() == _proj_lorentz_unscaled(y).tobytes()


def _hypot_reference(y):
    """(projection, distance) of a finite point from math.hypot, which does
    not overflow while the result is finite."""
    head, tail = float(y[0]), y[1:].tolist()
    tail_norm = math.hypot(*tail)
    if head >= tail_norm:
        return [head] + tail, 0.0
    if head <= -tail_norm:
        return [0.0] * len(y), math.hypot(head, tail_norm)
    # Halved before they are summed: head + ||tail|| may overflow.
    coef = 0.5 * head + 0.5 * tail_norm
    root2 = math.sqrt(2.0)
    return [coef] + [coef / tail_norm * t for t in tail], tail_norm / root2 - head / root2


@st.composite
def _huge_points(draw):
    """Finite points with entries of magnitude 1e150 up to the largest
    float, so the sum of squares of the tail overflows, and so may
    head + ||tail||.  A tail whose norm would overflow is quartered."""
    n = draw(st.integers(2, 6))
    exps = draw(st.lists(st.one_of(st.floats(150.0, 308.25), st.floats(307.7, 308.25)),
                         min_size=n, max_size=n))
    mants = draw(st.lists(st.floats(1.0, 9.99), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    y = np.array([s * min(m * 10.0 ** e, _FLOAT_MAX) for s, m, e in zip(signs, mants, exps)])
    if math.hypot(*y[1:].tolist()) == math.inf:
        y[1:] *= 0.25
    if draw(st.booleans()):  # a small head
        y[0] = draw(st.floats(-1.0, 1.0))
    return y


_FLOAT_MAX = 1.7976931348623157e308


@settings(deadline=None, max_examples=300)
@given(_huge_points())
# A polar point whose norm lies just past the overflow threshold: scaled by
# its largest |entry|, the sum of squares rounds to 1 and the norm to that entry.
@example(np.array([-_FLOAT_MAX, 2e300]))
def test_lorentz_overflowing_sums_of_squares_match_hypot(y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist = dist_lorentz(y)
        proj = proj_lorentz(y)
    ref_proj, ref_dist = _hypot_reference(y)
    # Relative to the point's size: near a boundary ray both sides cancel.
    # A polar point near the largest float is inf away on both sides.
    scale = max(map(abs, y.tolist()))
    assert dist == ref_dist or abs(dist - ref_dist) <= 1e-12 * scale
    assert np.all(np.isfinite(proj))
    assert np.all(np.abs(proj - np.array(ref_proj)) <= 1e-12 * scale)


def test_lorentz_overflow_examples():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dist_lorentz(np.array([1.0, 1e200])) == pytest.approx(1e200 / math.sqrt(2.0), rel=1e-15)
        assert proj_lorentz(np.array([1.0, 1e200])) == pytest.approx([5e199, 5e199], rel=1e-15)
        assert dist_lorentz(np.array([1.0, 1e200, 1e200])) == pytest.approx(1e200, rel=1e-15)
        assert dist_lorentz(np.array([-1e200, 1e200, 0.0])) == pytest.approx(math.sqrt(2.0) * 1e200,
                                                                             rel=1e-15)
        # head + ||tail|| overflows, the distance does not.
        expected = (1.5e308 - 1e308) / math.sqrt(2.0)
        assert dist_lorentz(np.array([1e308, 1.5e308])) == pytest.approx(expected, rel=1e-15)
        assert dist_lorentz(np.array([1e308, 1.5e308, 0.0])) == pytest.approx(expected, rel=1e-15)
        assert proj_lorentz(np.array([1e308, 1.5e308, 0.0])) == pytest.approx([1.25e308, 1.25e308, 0.0],
                                                                              rel=1e-15)
        # An infinite entry still makes the tail norm inf, as before.
        assert math.isnan(dist_lorentz(np.array([1.0, math.inf, 1.0])))


# dist_lorentz on a float array as it was before float lists were read as
# they are: every gap an array, every norm a numpy dot.
def _array_norm(v) -> float:
    sq = np.vdot(v, v)
    if sq != math.inf:
        return math.sqrt(sq)
    scale = max(map(abs, v.tolist()))
    if scale == math.inf:
        return math.inf
    v = v / scale
    return scale * math.sqrt(np.vdot(v, v))


def _array_dist_lorentz(y) -> float:
    y = np.asarray(y, dtype=float)
    vals = y.tolist()
    head = vals[0]
    if len(vals) == 2:
        sq = vals[1] * vals[1]
        tail_norm = math.sqrt(sq) if sq != math.inf else abs(vals[1])
    else:
        tail_norm = _array_norm(y[1:])
    if head >= tail_norm:
        return 0.0 if head < math.inf else math.nan
    if head <= -tail_norm:
        gap = y
    else:
        coef = 0.5 * (head + tail_norm)
        if coef == math.inf:
            coef = 0.5 * head + 0.5 * tail_norm
        ratio = coef / tail_norm if 0.0 < tail_norm < math.inf else math.nan
        gap = y - ratio * y
        gap[0] = head - coef
    return _array_norm(gap)


@st.composite
def _float_list_points(draw):
    """Lists of 2 to 5 Python floats: signed zeros, infinities, NaN and
    extreme magnitudes (1e200 squares to inf) in the tail, and a head on a
    boundary ray, in the polar cone, inf, -inf, NaN or anything else."""
    entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                        st.sampled_from(_EXTREME), st.floats())
    tail = draw(st.lists(entries, min_size=1, max_size=4))
    norm = _array_norm(np.array(tail))
    polar = draw(st.floats(1.0, 1e6)) * -norm
    head = draw(st.one_of(st.sampled_from([norm, -norm, polar, 0.0, -0.0, math.inf, -math.inf,
                                           math.nan]), entries))
    return [head] + tail


@settings(deadline=None, max_examples=1000)
@given(_float_list_points())
def test_dist_lorentz_of_a_float_list_has_the_array_path_bytes(y):
    with np.errstate(all="ignore"):
        want = struct.pack("<d", _array_dist_lorentz(np.array(y)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert struct.pack("<d", dist_lorentz(y)) == want, y
        assert struct.pack("<d", dist_lorentz(np.array(y))) == want, y


def test_dist_lorentz_reads_other_lists_as_arrays():
    # A list without a Python float head (ints, numpy scalars, a nested
    # list) or of one entry takes the array path and gives its value or its
    # error.
    assert dist_lorentz([1, 0]) == 0.0
    assert dist_lorentz([-3, 4]) == pytest.approx(math.sqrt(2.0) * 3.5)
    # c1_value's shifted points at a numpy scalar c: no scalar overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = [np.float64(-1e200), np.float64(1e200)]
        assert dist_lorentz(big) == _array_dist_lorentz(np.array(big))
    for y in ([1.0], [[1.0, 0.0]]):
        with pytest.raises(ValueError):
            dist_lorentz(y)
