"""Dense symmetric linear algebra on LAPACK: Cholesky solves with a
relative pivot test, and symmetric eigendecomposition.

Everything here works on plain numpy arrays.  Matrices are symmetrized on
entry; order is capped at 64 (desk scale, no sparse paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv, dsyevd

from .errors import NoConvergence, NotPositiveDefinite

MAX_ORDER = 64

# Relative pivot threshold defining "positive definite" for chol_solve.
PIVOT_RTOL = 1e-12


def sym(a) -> np.ndarray:
    """Return a symmetrized float copy of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    out = a + a.T
    out *= 0.5
    return out


@dataclass(frozen=True)
class EigenDecomp:
    """Eigendecomposition of a symmetric matrix.

    ``values`` is sorted ascending and ``vectors`` holds the matching
    orthonormal eigenvectors as columns.
    """

    values: np.ndarray
    vectors: np.ndarray


def chol_solve(a, b) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A.

    Calls LAPACK's ``posv`` directly, which factors A by ``potrf`` and
    solves by ``potrs`` in one call and returns the factor.  Raises
    NotPositiveDefinite when ``posv`` cannot factor A or a Cholesky
    pivot diag(L)^2 is below PIVOT_RTOL times the largest diagonal entry;
    this is the operational nondegeneracy test used by the
    multiplier-estimate subproblems.  Non-finite input raises ValueError.

    The finiteness scan runs only where non-finite input can have ended
    up: before any NotPositiveDefinite, and when the largest diagonal
    entry or the solution is not finite.  A non-finite off-diagonal entry
    makes the factorization fail or leaves a NaN or inf in the factor, which
    reaches the solution; a non-finite rhs reaches it too.
    """
    a = sym(a)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match order {n}")
    if n == 0:
        return np.zeros(0)
    max_diag = _diagonal_extreme(a, max)
    if max_diag <= 0.0:
        _require_finite(a, b)
        raise NotPositiveDefinite("no positive diagonal entry")
    factor, x, info = dposv(a, b, lower=1)
    if info != 0:
        _require_finite(a, b)
        raise NotPositiveDefinite(f"Cholesky factorization failed (LAPACK info {info})")
    min_pivot = _diagonal_extreme(factor, min) ** 2
    threshold = PIVOT_RTOL * max_diag
    if min_pivot < threshold:
        _require_finite(a, b)
        raise NotPositiveDefinite(f"pivot {min_pivot:.3e} below threshold {threshold:.3e}")
    if not (math.isfinite(max_diag) and all(map(math.isfinite, x.tolist()))):
        _require_finite(a, b)
    return x


def _diagonal_extreme(a: np.ndarray, pick) -> float:
    """``pick`` (max or min) of the diagonal of ``a`` on floats; NaN when it
    holds a NaN, as numpy's reduction gives."""
    diag = a.diagonal().tolist()
    return math.nan if any(map(math.isnan, diag)) else pick(diag)


def _require_finite(a, b) -> None:
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("system has non-finite entries")


def eig_sym(a) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix by LAPACK's ``syevd``,
    called directly (the routine ``np.linalg.eigh`` runs, same bits).

    Raises ValueError for order above MAX_ORDER or non-finite entries, and
    NoConvergence when LAPACK does not converge.
    """
    a = sym(a)
    n = a.shape[0]
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds supported maximum {MAX_ORDER}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    values, vectors, info = dsyevd(a, compute_v=1, lower=1)
    if info != 0:
        raise NoConvergence(f"eigendecomposition did not converge (LAPACK info {info})")
    return EigenDecomp(values, vectors)
