import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dposv, dpotrf, dpotrs, dsyevd

from epflab import numerics
from epflab.cones import dist_psd_minus, dist_psd_minus2
from epflab.errors import NoConvergence, NotPositiveDefinite
from epflab.numerics import MAX_ORDER, PIVOT_RTOL, EigenDecomp, chol_solve, eig_sym, sym
from paper_checks import reconstruct


def test_sym_rejects_nonsquare():
    with pytest.raises(ValueError):
        sym(np.zeros((2, 3)))


def test_chol_solve_identity():
    assert np.allclose(chol_solve(np.eye(2), np.array([3.0, -1.0])), [3.0, -1.0])


def test_chol_solve_diagonal():
    a = np.diag([4.0, 9.0])
    assert np.allclose(chol_solve(a, np.array([8.0, 27.0])), [2.0, 3.0])


def test_chol_solve_dense():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = chol_solve(a, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0])
    assert np.linalg.norm(a @ x - np.array([3.0, 3.0])) <= 1e-10 * (1 + np.linalg.norm([3, 3]))


def test_chol_solve_random_spd():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        b_mat = rng.normal(size=(n, n))
        a = b_mat.T @ b_mat + 1e-3 * np.eye(n)
        b = rng.normal(size=n)
        x = chol_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_chol_solve_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        chol_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(NotPositiveDefinite):
        chol_solve(-np.eye(2), np.ones(2))


def test_chol_solve_lapack_factor_failure():
    # Positive diagonal, so only potrf's info > 0 can reject it.
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert dpotrf(a, lower=1)[1] > 0
    with pytest.raises(NotPositiveDefinite, match="LAPACK info"):
        chol_solve(a, np.ones(2))


@st.composite
def _spd_systems(draw):
    n = draw(st.integers(1, 8))
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    b_mat = draw(arrays(float, (n, n), elements=entries))
    return b_mat.T @ b_mat + 0.1 * np.eye(n), draw(arrays(float, (n,), elements=entries))


@settings(deadline=None)
@given(_spd_systems())
def test_chol_solve_matches_numpy_solve(system):
    a, b = system
    expected = np.linalg.solve(a, b)
    assert np.linalg.norm(chol_solve(a, b) - expected) <= 1e-10 * (1.0 + np.linalg.norm(expected))


def test_chol_solve_singular_pivot():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        chol_solve(a, np.ones(2))
    # LAPACK factors this one; only the PIVOT_RTOL test rejects it.
    with pytest.raises(NotPositiveDefinite):
        chol_solve(np.diag([1.0, 1e-14]), np.ones(2))


def test_chol_solve_nonfinite_rejected():
    with pytest.raises(ValueError):
        chol_solve(np.array([[1.0, np.nan], [np.nan, 2.0]]), np.ones(2))
    with pytest.raises(ValueError):
        chol_solve(np.eye(2), np.array([np.inf, 1.0]))
    # An inf diagonal: potrf factors diag(inf, inf) and the pivot test passes.
    for diag in ([np.inf, 1.0], [np.inf, np.inf], [-np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            chol_solve(np.diag(diag), np.ones(2))
    # Non-positive diagonal, so the first NotPositiveDefinite test would fire.
    with pytest.raises(ValueError):
        chol_solve(np.array([[-1.0, np.inf], [np.inf, -1.0]]), np.ones(2))


def _reference_chol_solve(a, b):
    """chol_solve as it was with every contract check up front, by LAPACK's
    ``potrf`` and then ``potrs``."""
    a = np.asarray(a, dtype=float)
    a = 0.5 * (a + a.T)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("system has non-finite entries")
    max_diag = float(a.diagonal().max())
    if max_diag <= 0.0:
        raise NotPositiveDefinite("no positive diagonal entry")
    factor, info = dpotrf(a, lower=1, clean=0)
    if info != 0:
        raise NotPositiveDefinite(f"Cholesky factorization failed (LAPACK info {info})")
    min_pivot = float(factor.diagonal().min()) ** 2
    threshold = PIVOT_RTOL * max_diag
    if min_pivot < threshold:
        raise NotPositiveDefinite(f"pivot {min_pivot:.3e} below threshold {threshold:.3e}")
    return dpotrs(factor, b, lower=1)[0]


def _outcome(solve, a, b):
    try:
        return solve(a, b)
    except (ValueError, NotPositiveDefinite) as exc:
        return type(exc), str(exc)


def test_chol_solve_matches_checks_first_reference():
    # Same bits or the same error as with the finiteness scan up front, on
    # SPD, indefinite, near-singular and non-finite systems of order <= 6.
    rng = np.random.default_rng(41)
    special = [np.nan, np.inf, -np.inf]
    for trial in range(6000):
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n))
        a = m @ m.T + rng.uniform(-0.5, 1.0) * np.eye(n)
        b = rng.normal(size=n)
        kind = trial % 6
        if kind == 1:
            i, j = rng.integers(0, n, size=2)
            a[i, j] = a[j, i] = special[trial % 3]
        elif kind == 2:
            b[rng.integers(0, n)] = special[trial % 3]
        elif kind == 3:
            # One inf on the diagonal, or all of it (then every pivot is inf).
            a[np.diag_indices(n) if trial % 12 == 3 else (0, 0)] = np.inf
        elif kind == 4:
            a *= 1e-300
        with np.errstate(all="ignore"):
            new, ref = _outcome(chol_solve, a, b), _outcome(_reference_chol_solve, a, b)
        if isinstance(ref, tuple):
            assert new == ref
        else:
            assert np.array_equal(new, ref) and np.array_equal(np.signbit(new), np.signbit(ref))


@st.composite
def _chol_systems(draw):
    """SPD, near-singular, indefinite and non-finite systems of order 1-6, at
    entry scales 1, 1e-150, 1e150 and 1e-300."""
    n = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    m = draw(arrays(float, (n, n), elements=unit))
    a = m @ m.T
    kind = draw(st.sampled_from(["spd", "near-singular", "indefinite", "non-finite"]))
    if kind == "spd":
        a += draw(st.floats(1e-3, 10.0)) * np.eye(n)
    elif kind == "near-singular":
        # Pivots around PIVOT_RTOL times the largest diagonal entry.
        a[:, 0] = a[0, :] = a[:, -1] * draw(st.sampled_from([1.0, -1.0]))
        a[0, 0] = a[-1, -1]
        a += draw(st.floats(0.0, 1e-10)) * np.eye(n)
    elif kind == "indefinite":
        a -= draw(st.floats(0.0, 2.0)) * np.eye(n)
    b = draw(arrays(float, (n,), elements=unit))
    if kind == "non-finite":
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if draw(st.booleans()):
            b[draw(st.integers(0, n - 1))] = bad
        else:
            a[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = bad
    scale = 10.0 ** draw(st.sampled_from([0, -150, 150, -300]))
    return a * scale, b


@settings(deadline=None, max_examples=500)
@given(_chol_systems())
def test_chol_solve_matches_potrf_potrs_by_bytes(system):
    # Same bytes as the factor-then-solve pair of LAPACK calls, or the same
    # exception with the same message.
    a, b = system
    with np.errstate(all="ignore"):
        new, ref = _outcome(chol_solve, a, b), _outcome(_reference_chol_solve, a, b)
    if isinstance(ref, tuple):
        assert new == ref
    else:
        assert new.tobytes() == ref.tobytes()


def test_chol_solve_empty():
    assert chol_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)


def test_chol_solve_solves_a_finite_system_whose_symmetrization_overflows():
    # A + A' overflows on these finite SPD systems; the solve reads A as it
    # is, with posv's bytes and no warning (the suite turns one into an error).
    b = np.ones(2)
    for a in (np.diag([1.5e308, 1e297]), np.array([[1.5e308, 1e308], [1e308, 1.5e308]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = chol_solve(a, b)
        assert x.tobytes() == dposv(a, b, lower=1)[1].tobytes()
    # posv factors diag(1.5e308, 1), but its pivot ratio fails PIVOT_RTOL.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveDefinite, match="below threshold"):
            chol_solve(np.diag([1.5e308, 1.0]), b)


def test_chol_solve_reads_the_lower_triangle():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        m = rng.normal(size=(n, n))
        spd = m @ m.T + np.eye(n)
        skewed = spd + np.triu(rng.normal(size=(n, n)), 1)
        b = rng.normal(size=n)
        assert chol_solve(skewed, b).tobytes() == chol_solve(spd, b).tobytes()
        # A non-finite entry is rejected in either triangle.
        for bad in (np.nan, np.inf):
            upper = spd.copy()
            upper[0, n - 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                chol_solve(upper, b)


_DOT_ENTRIES = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-162,
                1e200, -1e200, 1.7976931348623157e308, math.inf, -math.inf, math.nan]


def test_dot_of_one_entry_is_numpy_dot():
    # 0.0 + a * b: -0.0 * 1.0 is -0.0, but numpy's dot of one entry is 0.0.
    assert math.copysign(1.0, numerics.dot([-0.0], [1.0])) == 1.0
    for a in _DOT_ENTRIES:
        for b in _DOT_ENTRIES:
            with np.errstate(all="ignore"):
                want = float.hex(float(np.array([a]) @ np.array([b])))
            assert float.hex(numerics.dot([a], [b])) == want, (a, b)
            assert float.hex(numerics.dot(np.array([a]), np.array([b]))) == want, (a, b)


def test_dot_of_longer_vectors_is_numpy_dot():
    rng = np.random.default_rng(9)
    for n in (0, 2, 3, 7, 40):
        u, v = rng.normal(size=n), rng.normal(size=n)
        want = float.hex(float(u @ v))
        assert float.hex(numerics.dot(u, v)) == want
        assert float.hex(numerics.dot(u.tolist(), v.tolist())) == want


# Inside the exact-split range [2**-480, 2**480] and at and beyond its
# ends: signed zeros, subnormals, magnitudes whose products overflow or
# underflow, and the non-finite values, beside any float.
_TWO_ENTRY = st.one_of(
    st.floats(), st.floats(-4.0, 4.0), st.floats(2.0 ** -490, 2.0 ** -470),
    st.floats(2.0 ** 470, 2.0 ** 490),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-162,
                     2.0 ** -480, -(2.0 ** -481), 2.0 ** 480, -(2.0 ** 481), 1e200,
                     1.7976931348623157e308, math.inf, -math.inf, math.nan]))


def _numpy_dot(u, v) -> str:
    with np.errstate(all="ignore"):
        return float.hex(float(np.vdot(np.array(u), np.array(v))))


@settings(deadline=None, max_examples=3000)
@given(st.lists(_TWO_ENTRY, min_size=4, max_size=4))
def test_dot_and_norm_of_two_entries_have_numpys_bytes(entries):
    u, v = entries[:2], entries[2:]
    want = _numpy_dot(u, v)
    for a, b in ((u, v), (tuple(u), tuple(v)), (np.array(u), np.array(v)), (u, np.array(v))):
        with np.errstate(all="ignore"):
            assert float.hex(numerics.dot(a, b)) == want, (a, b)
    with np.errstate(all="ignore"):
        want = np.linalg.norm(np.array(u))
    if math.isfinite(want) or not all(map(math.isfinite, u)):
        assert np.float64(numerics.norm(u)).tobytes() == want.tobytes(), u
        assert np.float64(numerics.norm(tuple(u))).tobytes() == want.tobytes(), u


def test_dot_of_two_entries_is_the_fused_rule_on_random_pairs():
    # The rule holds on OpenBLAS's ddot, where numpy's dot of two entries is
    # 0.0 + fma(u1, v1, fma(u0, v0, 0.0)); a * b + c * d differs from it.
    rng = np.random.default_rng(37)
    draws = [rng.uniform(-4.0, 4.0, size=(50_000, 4)),
             rng.standard_normal((50_000, 4)) * 10.0 ** rng.integers(-130, 130, size=(50_000, 4))]
    for rows in draws:
        for a0, a1, b0, b1 in rows.tolist():
            got = numerics._dot2(a0, a1, b0, b1)
            assert got is not None
            want = float(np.vdot([a0, a1], [b0, b1]))
            assert float.hex(got) == float.hex(want), (a0, a1, b0, b1)
    assert sum(float.hex(a * b + c * d) != float.hex(numerics._dot2(a, c, b, d))
               for a, c, b, d in draws[0][:2000].tolist()) > 100


@pytest.mark.parametrize("entries", [
    (1.0, 2.0 ** 481, 1.0, 1.0), (1.0, 1.0, 1.0, -(2.0 ** -481)), (1.0, 0.0, 1.0, math.inf),
    (1.0, 1.0, 1.0, 5e-324), (1e301, 1.0, 1e300, 1.0), (math.inf, 1.0, 1.0, 1.0),
    (math.nan, 1.0, 1.0, 1.0), (1.0, math.nan, 1.0, 1.0), (1.0, 1.0, 1.0, -math.inf)])
def test_two_entry_rule_leaves_inputs_beyond_its_range_to_numpy(entries):
    # Beyond [2**-480, 2**480] Dekker's product may round, and 0 * inf is NaN.
    a0, a1, b0, b1 = entries
    assert numerics._dot2(a0, a1, b0, b1) is None
    assert float.hex(numerics.dot([a0, a1], [b0, b1])) == _numpy_dot([a0, a1], [b0, b1])


def test_eig_diagonal():
    d = eig_sym(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(d.values, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(d.vectors), np.eye(3))


def test_eig_offdiagonal():
    d = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(d.values, [-1.0, 1.0])
    assert np.linalg.norm(reconstruct(d) - np.array([[0.0, 1.0], [1.0, 0.0]])) <= 1e-10


def test_eig_zero_matrix():
    d = eig_sym(np.zeros((3, 3)))
    assert np.allclose(d.values, 0.0)


def test_eig_order_cap():
    with pytest.raises(ValueError):
        eig_sym(np.eye(MAX_ORDER + 1))


def test_eig_nonfinite_rejected():
    a = np.eye(2)
    a[0, 0] = np.nan
    with pytest.raises(ValueError):
        eig_sym(a)


def test_eig_random_invariant():
    # Module invariant: reconstruction <= 1e-8 and orthonormality <= 1e-10
    # on 1e4 random symmetric matrices of order <= 8.
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        a = 0.5 * (a + a.T)
        d = eig_sym(a)
        assert np.linalg.norm(reconstruct(d) - a) <= 1e-8
        assert np.linalg.norm(d.vectors.T @ d.vectors - np.eye(n)) <= 1e-10
        assert np.all(np.diff(d.values) >= -1e-12)


def _reference_eig_sym(a):
    """eig_sym as it was on ``np.linalg.eigh``."""
    a = sym(a)
    n = a.shape[0]
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds supported maximum {MAX_ORDER}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition did not converge: {exc}") from exc
    return EigenDecomp(values, vectors)


def _same_bits(new, ref):
    return np.array_equal(new, ref) and np.array_equal(np.signbit(new), np.signbit(ref))


def test_eig_sym_matches_eigh_reference_bit_for_bit():
    # Orders 0-8, dense and diagonal, entry scales 1e-6 to 1e6, some or all
    # entries -0.0: values and vectors have the bits np.linalg.eigh gives.
    rng = np.random.default_rng(43)
    matrices = [np.full((n, n), fill) for n in range(9) for fill in (0.0, -0.0)]
    for trial in range(6000):
        n = trial % 9
        a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6.0, 6.0)
        if trial % 3 == 0:
            a = np.diag(np.diag(a))
        if trial % 4 == 1:
            a[rng.random((n, n)) < 0.4] = -0.0
        matrices.append(a)
    for a in matrices:
        new, ref = eig_sym(a), _reference_eig_sym(a)
        assert _same_bits(new.values, ref.values), a
        assert _same_bits(new.vectors, ref.vectors), a


def test_eig_no_convergence_maps_lapack_info(monkeypatch):
    def failing(a, compute_v, lower):
        return np.zeros(a.shape[0]), np.eye(a.shape[0]), 1

    monkeypatch.setattr(numerics, "dsyevd", failing)
    with pytest.raises(NoConvergence, match="LAPACK info 1"):
        eig_sym(np.eye(2))


@st.composite
def _symmetric_input(draw):
    n = draw(st.integers(0, 6))
    entries = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return draw(arrays(float, (n, n), elements=entries))


@settings(deadline=None)
@given(_symmetric_input())
def test_dist_psd_minus_matches_eigh_norm(a):
    ref = float(np.linalg.norm(np.maximum(np.linalg.eigh(sym(a))[0], 0)))
    assert _same_bits(np.float64(dist_psd_minus(a)), np.float64(ref))


# Order 2 on floats: eigvals_sym2 and the PSD distance built on it must give
# the bytes of LAPACK's dsyevd (compute_v=1, lower=1) on the symmetrized
# matrix, and fall back to it wherever dsyevd or dsteqr would rescale.
_RMIN, _RMAX = math.sqrt(2.0 ** -969), math.sqrt(2.0 ** 969)  # dsyevd
_SSFMIN, _SSFMAX = 2.0 ** -405, 2.0 ** 511 / 3.0  # dsteqr
_EPS, _EPS2, _SAFMIN = 2.0 ** -53, 2.0 ** -106, 2.0 ** -1022


def _around(v):
    return [np.nextafter(v, 0.0), v, np.nextafter(v, math.inf)]


# Largest |entry| of a drawn matrix: both sides of each rescaling bound,
# subnormals, 0 and moderate scales.
_TOPS = [float(t) for b in (_RMIN, _RMAX, _SSFMIN, _SSFMAX) for t in _around(b)] + [
    0.0, 5e-324, 2.2250738585072014e-308, 1e-120, 2.0 ** -60, 1.0, 3.0, 2.0 ** 60, 1e120,
    1.7976931348623157e308]


def _sym2(a):
    with np.errstate(all="ignore"):
        s = a + a.T
        s *= 0.5
    return s


def _dsyevd_values(a):
    values, _, info = dsyevd(_sym2(a), compute_v=1, lower=1)
    assert info == 0
    return values


def _reference_dist(a):
    """The PSD distance on dsyevd: the norm of the clipped eigenvalues,
    scaled by the largest of them where their sum of squares overflows."""
    if not np.isfinite(_sym2(a)).all():
        return math.nan
    clipped = np.maximum(_dsyevd_values(a), 0.0)
    sq = clipped @ clipped
    if sq == math.inf:
        scale = clipped.max()
        return scale * math.sqrt((clipped / scale) @ (clipped / scale))
    return math.sqrt(sq)


def _check_order2(a):
    s = _sym2(a)
    d1, e, d2 = float(s[0, 0]), float(s[1, 0]), float(s[1, 1])
    values = numerics.eigvals_sym2(d1, e, d2)
    top = np.abs(s).max()
    assert (values is None) == (not (np.isfinite(s).all() and _SSFMIN <= top <= _RMAX)), a
    if values is not None:
        assert np.array(values).tobytes() == _dsyevd_values(a).tobytes(), a
    with np.errstate(all="ignore"):
        expected = np.float64(_reference_dist(a))
        for dist in (dist_psd_minus(a), dist_psd_minus2(*a.ravel().tolist())):
            assert np.array_equal(np.float64(dist), expected, equal_nan=True), a
            assert np.signbit(dist) == np.signbit(expected), a


@st.composite
def _order2_matrices(draw):
    """2x2 matrices whose largest |entry| is drawn from _TOPS, with e on
    either side of dsteqr's two split tests, equal or opposite diagonals,
    signed zeros, asymmetric off-diagonals and non-finite entries."""
    top = draw(st.sampled_from(_TOPS))
    unit = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25]), st.floats(-1.0, 1.0))
    d1, e, d2 = (top * draw(unit) for _ in range(3))
    layout = draw(st.sampled_from(["free", "equal", "opposite", "split", "small", "zero"]))
    if layout == "equal":
        d2 = d1
    elif layout == "opposite":
        d2 = -d1
    elif layout == "split":  # |e| <= sqrt|d1| sqrt|d2| eps
        e = float(draw(st.sampled_from(_around((math.sqrt(abs(d1)) * math.sqrt(abs(d2))) * _EPS))))
    elif layout == "small":  # e * e <= (eps^2 |d_small|) |d_big| + safmin
        small, big = sorted((abs(d1), abs(d2)))
        e = float(draw(st.sampled_from(_around(math.sqrt((_EPS2 * small) * big + _SAFMIN)))))
    elif layout == "zero":
        e = draw(st.sampled_from([0.0, -0.0]))
    e *= draw(st.sampled_from([1.0, -1.0]))
    entries = [d1, e, e, d2]
    entries[draw(st.integers(0, 3))] = top * draw(st.sampled_from([1.0, -1.0]))
    if draw(st.integers(0, 3)) == 0:  # asymmetric
        entries[draw(st.sampled_from([1, 2]))] = top * draw(unit)
    if draw(st.integers(0, 9)) == 0:
        entries[draw(st.integers(0, 3))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return np.array(entries).reshape(2, 2)


@settings(deadline=None, max_examples=1500)
@given(_order2_matrices())
def test_order2_matches_dsyevd_bytes(a):
    _check_order2(a)


def test_order2_matches_dsyevd_on_random_matrices():
    rng = np.random.default_rng(11)
    n = 4000
    batches = [rng.standard_normal((n, 2, 2)),
               rng.standard_normal((n, 2, 2)) * 10.0 ** rng.uniform(-120.0, 120.0, (n, 1, 1)),
               np.round(rng.uniform(-4.0, 4.0, (n, 2, 2)) * 4.0) / 4.0]
    equal = rng.standard_normal((n, 2, 2))
    equal[:, 1, 1] = equal[:, 0, 0]
    opposite = rng.standard_normal((n, 2, 2))
    opposite[:, 1, 1] = -opposite[:, 0, 0]
    for a in [*batches, equal, opposite]:
        for m in a:
            _check_order2(m)


# Each catches an arithmetic variant of laev2 that gives other bits:
# (ab/adf)**2 on numpy scalars (the first), a fused multiply-add under the
# square root (the first three), rt2 contracted into a fused multiply-add
# either way (the first, third and fourth), and the generic rt2 where
# sm = 0, for which laev2 sets rt2 = -rt/2 (the last).
_WITNESSES = [
    [[1.2497800909371581, -0.9564948255586341], [-0.9564948255586341, -0.998093985794608]],
    [[0.5, 0.625], [0.625, -0.0]],
    [[0.75, 0.75], [0.75, -0.5]],
    [[-0.2571922406188707, -0.13373036239051345], [-0.13373036239051345, 1.2940638143982073]],
    [[0.5, 0.5], [0.5, -0.5]],
]


@pytest.mark.parametrize("a", _WITNESSES, ids=str)
def test_order2_witnesses(a):
    a = np.array(a)
    _check_order2(a)
    assert numerics.eigvals_sym2(a[0, 0], a[1, 0], a[1, 1]) is not None


# Signed zeros, subnormals, magnitudes whose squares overflow or underflow,
# and the non-finite values, beside any float.
_NORM_ENTRIES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-162, 1e-200,
                     1.3e154, -1.4e154, 1e200, 1.7976931348623157e308, math.inf, -math.inf,
                     math.nan]))


@settings(deadline=None, max_examples=1000)
@given(st.lists(_NORM_ENTRIES, min_size=1, max_size=8), st.booleans())
def test_norm_has_the_bytes_of_np_linalg_norm(entries, as_list):
    v = np.array(entries)
    got = numerics.norm(entries if as_list else v)
    assert type(got) is float
    with np.errstate(over="ignore"):
        sq = v @ v
        want = np.linalg.norm(v)
    if sq < math.inf or not np.isfinite(v).all():
        assert np.float64(got).tobytes() == want.tobytes(), entries
    else:
        # The finite squares overflow: numpy's inf, the scaled norm here,
        # inf only where the norm itself is above the float range, which
        # math.hypot decides where the scaled norm reaches the largest float.
        scale = float(np.abs(v).max())
        scaled = scale * math.sqrt((v / scale) @ (v / scale))
        assert got == (scaled if scaled < 1.7976931348623157e308 else math.hypot(*entries)), entries


def test_norm_of_overflowing_squares_is_finite():
    assert numerics.norm([1e200]) == numerics.norm(np.array([-1e200])) == 1e200
    assert numerics.norm([0.0, 1e200]) == 1e200
    assert numerics.norm([3e200, 4e200]) == pytest.approx(5e200, rel=1e-15)
    assert numerics.norm((1.7976931348623157e308, 1.7976931348623157e308)) == math.inf
    # Scaled, the sum of squares rounds to 1; the norm itself overflows, as hypot says.
    assert numerics.norm([-1.7976931348623157e308, 2e300]) == math.inf
    assert numerics.norm([math.inf, 1.0]) == math.inf
    assert math.isnan(numerics.norm([math.nan, 1e200, 1e200]))


def _exact_fma(a: float, b: float, c: float) -> float:
    """a * b + c correctly rounded, from exact rational arithmetic; an exact
    zero sum of a nonzero product is +0.0, of zeros IEEE's a * b + c."""
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        return a * b + c if a == 0.0 or b == 0.0 else 0.0
    return float(exact)


# Factors inside, at and beyond the ends of [2**-480, 2**480], and addends up
# to 2**1000 and beyond, signed zeros and subnormals among them.
_FMA_FACTOR = st.one_of(st.floats(-4.0, 4.0), st.floats(2.0 ** -490, 2.0 ** -470),
                        st.floats(-(2.0 ** 490), -(2.0 ** 470)),
                        st.sampled_from([0.0, -0.0, 5e-324, 2.0 ** -480, -(2.0 ** 480), 1.5,
                                         math.inf, math.nan]))
_FMA_ADDEND = st.one_of(st.floats(-4.0, 4.0), st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0, 2.0 ** 1000, -(2.0 ** 1001), math.inf]))


@settings(deadline=None, max_examples=1500)
@given(_FMA_FACTOR, _FMA_FACTOR, _FMA_ADDEND)
def test_fma_is_the_correctly_rounded_fused_multiply_add_in_its_range(a, b, c):
    got = numerics._fma(a, b, c)
    if a == 0.0 or b == 0.0:
        in_range = math.isfinite(a + b)
    else:
        in_range = (2.0 ** -480 <= abs(a) <= 2.0 ** 480 and 2.0 ** -480 <= abs(b) <= 2.0 ** 480
                    and abs(c) <= 2.0 ** 1000)
    if not in_range:
        assert got is None
    elif math.isfinite(c):
        assert float.hex(got) == float.hex(_exact_fma(a, b, c)), (a, b, c)
    else:
        assert float.hex(got) == float.hex(c)  # a zero product beside an inf c


def _posv_reference(a, b):
    """LAPACK's posv called on arrays, with chol_solve's checks and messages."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("system has non-finite entries")
    max_diag = float(a.diagonal().max())
    if max_diag <= 0.0:
        raise NotPositiveDefinite("no positive diagonal entry")
    factor, x, info = dposv(a, b, lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"Cholesky factorization failed (LAPACK info {info})")
    min_pivot = float(factor.diagonal().min()) ** 2
    threshold = PIVOT_RTOL * max_diag
    if min_pivot < threshold:
        raise NotPositiveDefinite(f"pivot {min_pivot:.3e} below threshold {threshold:.3e}")
    return x.tobytes()


# Each kind is a seventh of a batch; the first four stay inside _fma's range.
_SMALL_KINDS = ("spd", "near-singular", "pivot-rtol", "signed-zeros", "non-positive",
                "beyond-range", "non-finite")


def _small_systems(rng, order: int, count: int):
    """``count`` systems (kind, A as rows of floats, b as a list) of an order
    of 1 or 2, every kind of ``_SMALL_KINDS`` in turn."""
    n = count // len(_SMALL_KINDS) + 1
    systems = []
    with np.errstate(all="ignore"):
        for kind in _SMALL_KINDS:
            l00 = np.exp(rng.uniform(-3.0, 3.0, n))
            l10 = rng.normal(0.0, 3.0, n)
            l11 = np.exp(rng.uniform(-3.0, 3.0, n))
            b = rng.normal(0.0, 3.0, (n, 2))
            if kind == "pivot-rtol":
                # l11^2 within a millionth of PIVOT_RTOL times the largest diagonal entry.
                l00[:] = 1.0
                l11 = np.sqrt(PIVOT_RTOL * np.maximum(1.0, l10 * l10)) * (1.0 + rng.uniform(-1e-6, 1e-6, n))
            a00, a10 = l00 * l00, l00 * l10
            a11 = l10 * l10 + l11 * l11
            if kind == "near-singular":
                # a11 a few units in the last place, or 1e-12 or 1e-9 relative, from
                # a10^2 / a00: a zero, tiny or small pivot.
                step = rng.choice([2.0 ** -52, 1e-12, 1e-9], n)
                a11 = a10 * a10 / a00 * (1.0 + rng.integers(-4, 5, n) * step)
            elif kind == "signed-zeros":
                a00 = rng.choice([0.0, -0.0, 0.25, 1.0, 4.0], n)
                a10 = rng.choice([0.0, -0.0, 0.5, -1.0, 2.0], n)
                a11 = rng.choice([0.0, -0.0, 1.0, 9.0], n)
                b = rng.choice([0.0, -0.0, 1.0, -3.0], (n, 2))
            elif kind == "non-positive":
                # A non-positive first pivot, second pivot or both diagonal entries.
                a00 = np.where(rng.random(n) < 0.5, rng.choice([0.0, -0.0, -1.0], n), a00)
                a11 = np.where(rng.random(n) < 0.5, a10 * a10 / a00 - rng.uniform(0.0, 1.0, n), a11)
            scale = 2.0 ** rng.integers(-60, 61, (n, 2))
            if kind == "beyond-range":
                # A and b scaled apart, across both ends of the exact range and into
                # subnormals and overflow.
                scale = 2.0 ** rng.integers(-1070, 1020, (n, 2)).astype(float)
            a00, a10, a11 = a00 * scale[:, 0], a10 * scale[:, 0], a11 * scale[:, 0]
            b = b * scale[:, 1:]
            a01 = np.where(rng.random(n) < 0.25, rng.normal(0.0, 3.0, n), a10)
            rows = np.stack([a00, a01, a10, a11, b[:, 0], b[:, 1]], axis=1)
            if kind == "non-finite":
                rows[np.arange(n), rng.integers(0, 6 if order == 2 else 1, n)] = \
                    rng.choice([math.inf, -math.inf, math.nan], n)
                rows[:, 4] = np.where(rng.random(n) < 0.2, math.nan, rows[:, 4])
            for e00, e01, e10, e11, b0, b1 in rows.tolist():
                if order == 1:
                    systems.append((kind, [[e00]], [b0]))
                else:
                    systems.append((kind, [[e00, e01], [e10, e11]], [b0, b1]))
    return systems[:count]


@pytest.mark.parametrize("order", [1, 2])
@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2 ** 63 - 1))
def test_float_posv_is_lapack_posv_bit_for_bit(order, seed):
    # 1,000 systems an example, 100 examples: 100,000 systems per order.  A
    # list system of order 1 or 2 is solved on floats with posv's operations;
    # the same bytes, or the same exception and message, as posv on arrays.
    float_path = fallback = 0
    for kind, a, b in _small_systems(np.random.default_rng(seed), order, 1000):
        with np.errstate(all="ignore"):
            ref = _outcome(_posv_reference, a, b)
        got = _outcome(chol_solve, a, b)
        if isinstance(ref, tuple):
            assert got == ref, (kind, a, b)
        else:
            assert type(got) is list and np.array(got).tobytes() == ref, (kind, a, b)
        try:
            solved = numerics._posv_floats(a, b)
        except (ValueError, NotPositiveDefinite):
            continue
        if solved is None:
            fallback += 1
            # Only a system beyond the fused multiply-add's range reaches LAPACK.
            assert kind == "beyond-range", (kind, a, b)
        else:
            float_path += 1
    assert float_path > 0
    if order == 2:
        assert fallback > 0
