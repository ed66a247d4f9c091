import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dpotrf

from epflab.errors import NotPositiveDefinite
from epflab.numerics import MAX_ORDER, chol_solve, eig_sym, sym


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


def test_chol_solve_empty():
    assert chol_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)


def test_eig_diagonal():
    d = eig_sym(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(d.values, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(d.vectors), np.eye(3))


def test_eig_offdiagonal():
    d = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(d.values, [-1.0, 1.0])
    assert np.linalg.norm(d.reconstruct() - np.array([[0.0, 1.0], [1.0, 0.0]])) <= 1e-10


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
        assert np.linalg.norm(d.reconstruct() - a) <= 1e-8
        assert np.linalg.norm(d.vectors.T @ d.vectors - np.eye(n)) <= 1e-10
        assert np.all(np.diff(d.values) >= -1e-12)
