import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dpotrf, dpotrs

from epflab import numerics
from epflab.cones import dist_psd_minus
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
