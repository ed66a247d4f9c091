"""Dense symmetric linear algebra on LAPACK (Cholesky solves with a
relative pivot test, symmetric eigendecomposition), the vector norm and
the dot product.

A matrix is a numpy array, or for ``chol_solve`` a list of rows of
Python floats; ``eig_sym`` symmetrizes on entry and caps the order at 64
(desk scale, no sparse paths), ``chol_solve`` reads the lower triangle as
LAPACK's ``posv`` does and solves a list system of order 1 or 2 on Python
floats with ``posv``'s own operations.  ``norm`` and ``dot`` take a
one-entry vector, and a two-entry list or tuple, on Python floats with
numpy's bits; a two-entry dot, like each fused multiply-add of the
order-2 solve, is correctly rounded from Dekker's exact product
(``_fma``) where that product is exact.  ``eigvals_sym2``
gives the eigenvalues of a symmetric 2x2 matrix on Python floats, with
the float operations ``syevd`` performs at that order (``sytd2``,
``steqr``'s split tests, ``laev2`` and the sort), so they have its bits
wherever neither routine rescales the matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv, dsyevd

from .errors import NoConvergence, NotPositiveDefinite

MAX_ORDER = 64

# Relative pivot threshold defining "positive definite" for chol_solve.
PIVOT_RTOL = 1e-12

# LAPACK's dlamch('S') and dlamch('E'), and the bounds derived from them
# outside which syevd (rmin, rmax) or steqr (ssfmin, ssfmax) rescale the
# matrix by its largest |entry|: eigvals_sym2 runs where neither does.
_SAFMIN = 2.0 ** -1022
_EPS = 2.0 ** -53
_EPS2 = _EPS * _EPS
_SMLNUM = _SAFMIN / _EPS
_UNSCALED_LOW = max(math.sqrt(_SMLNUM), math.sqrt(_SAFMIN) / _EPS2)  # 2**-405
_UNSCALED_HIGH = min(math.sqrt(1.0 / _SMLNUM), math.sqrt(1.0 / _SAFMIN) / 3.0)  # about 2**484.5


def _fma(a: float, b: float, c: float):
    """a * b + c rounded once, as a fused multiply-add gives it, or None
    where a nonzero ``a`` or ``b`` lies outside the range where Dekker's
    product is exact, a zero one meets inf or NaN, or ``c`` is above 2**1000,
    inf or NaN beside a nonzero product.

    Dekker's product gives a * b exactly as the pair (prod, err);
    ``math.fsum`` rounds c + prod + err once, as the fma does.  In that range
    an exact zero sum is 0.0, as the fma rounds it."""
    if a == 0.0 or b == 0.0:
        # An exact zero product, unless the other factor is inf or NaN: the
        # fma adds it to c, the sign of a zero sum as IEEE addition gives it.
        return a * b + c if math.isfinite(a + b) else None
    # Veltkamp's split at 2**27 + 1 and the error term are exact where each
    # factor's magnitude lies in [2**-480, 2**480]: no split overflows and no
    # partial product underflows.  A c up to 2**1000 keeps the sum finite.
    # (The bounds are literals, which the compiler folds.)
    if not (2.0 ** -480 <= abs(a) <= 2.0 ** 480 and 2.0 ** -480 <= abs(b) <= 2.0 ** 480
            and abs(c) <= 2.0 ** 1000):
        return None
    prod = a * b
    t = 134217729.0 * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    if b is a:  # a square, as norm asks for: one split
        b_hi, b_lo = a_hi, a_lo
    else:
        t = 134217729.0 * b
        b_hi = t - (t - b)
        b_lo = b - b_hi
    err = ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return math.fsum((c, prod, err))


def _dot2(a0: float, a1: float, b0: float, b1: float):
    """0.0 + fma(a1, b1, a0 * b0) by ``_fma``, or None where that gives None.

    This is numpy's dot of two entries on OpenBLAS: ``ddot`` accumulates
    one fused multiply-add per entry from 0.0, and numpy adds the result to
    0.0, which turns a zero sum's sign to +."""
    found = _fma(a1, b1, a0 * b0)
    return None if found is None else 0.0 + found


def norm(v) -> float:
    """Euclidean norm of a float list, tuple or 1-D float array, with the
    bits of ``np.linalg.norm`` wherever the sum of squares is finite:
    sqrt(t * t) of one entry t, sqrt of ``_dot2`` for a list or tuple of
    two within its range, else the same numpy dot (``np.vdot``, without the
    overflow warning of ``@``).  Where the sum overflows with every entry
    finite, the norm is |t|, or recomputed scaled by the largest |entry|
    (Blue, ACM TOMS 4, 1978); a scaled norm that reaches the largest float
    may be rounded across the overflow threshold, so ``math.hypot`` decides it."""
    n = len(v)
    if n == 1:
        t = float(v[0])
        sq = t * t
        return math.sqrt(sq) if sq != math.inf else abs(t)
    if n == 2 and type(v) is not np.ndarray:
        a, b = v
        sq = _fma(b, b, a * a)  # _dot2(a, b, a, b): a sum of squares is never -0.0
        if sq is not None and sq != math.inf:
            return math.sqrt(sq)
    sq = np.vdot(v, v)
    if sq != math.inf:
        return math.sqrt(sq)
    v = np.asarray(v, dtype=float)
    scale = max(map(abs, v.tolist()))
    if scale == math.inf:
        return math.inf
    w = v / scale
    scaled = scale * math.sqrt(np.vdot(w, w))
    return scaled if scaled < sys.float_info.max else math.hypot(*v.tolist())


def dot(u, v) -> float:
    """u . v of two float lists or 1-D float arrays of one length, with the
    bits of numpy's dot, which adds BLAS's ``ddot`` to a sum started at 0.0:
    for one entry that is 0.0 + u0 * v0 (a product -0.0 becomes 0.0), for
    two lists or tuples of two ``_dot2`` within its range, and otherwise
    ``np.vdot``."""
    if len(u) == 1:
        return 0.0 + float(u[0]) * float(v[0])
    if len(u) == 2 and type(u) is not np.ndarray and type(v) is not np.ndarray:
        (a0, a1), (b0, b1) = u, v
        found = _dot2(a0, a1, b0, b1)
        if found is not None:
            return found
    return float(np.vdot(u, v))


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


def chol_solve(a, b):
    """Solve A x = b for symmetric positive definite A, of which only the
    lower triangle is read.

    Calls LAPACK's ``posv`` directly, which factors A by ``potrf`` and
    solves by ``potrs`` in one call and returns the factor.  Raises
    NotPositiveDefinite when ``posv`` cannot factor A or a Cholesky
    pivot diag(L)^2 is below PIVOT_RTOL times the largest diagonal entry;
    this is the operational nondegeneracy test used by the
    multiplier-estimate subproblems.  A non-finite entry of A (either
    triangle) or b raises ValueError first.  A is not symmetrized: a finite
    A that is not symmetric is solved as the symmetric matrix of its lower
    triangle, and a finite A whose A + A' overflows is solved as it is.

    A given as a list of rows gives x as a list of Python floats; with b a
    list too, a system of order 1 or 2 is solved on floats by
    ``_posv_floats``, with ``posv``'s bits, checks and messages.
    """
    listed = type(a) is list
    if listed and type(b) is list and 0 < len(a) <= 2:
        x = _posv_floats(a, b)
        if x is not None:
            return x
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match order {n}")
    if n == 0:
        return [] if listed else np.zeros(0)
    entries = a.ravel().tolist()
    if not all(map(math.isfinite, entries + b.tolist())):
        raise ValueError("system has non-finite entries")
    max_diag = max(entries[:: n + 1])
    if max_diag <= 0.0:
        raise NotPositiveDefinite("no positive diagonal entry")
    factor, x, info = dposv(a, b, lower=1)
    if info != 0:
        raise _factor_failure(info)
    _check_pivots(min(factor.diagonal().tolist()), max_diag)
    return x.tolist() if listed else x


def _factor_failure(info: int) -> NotPositiveDefinite:
    return NotPositiveDefinite(f"Cholesky factorization failed (LAPACK info {info})")


def _check_pivots(min_diag: float, max_diag: float) -> None:
    """NotPositiveDefinite where the smallest pivot min_diag**2 of L is below
    PIVOT_RTOL times A's largest diagonal entry."""
    min_pivot = min_diag ** 2
    threshold = PIVOT_RTOL * max_diag
    if min_pivot < threshold:
        raise NotPositiveDefinite(f"pivot {min_pivot:.3e} below threshold {threshold:.3e}")


def _posv_floats(a: list, b: list):
    """``chol_solve`` of a list A of one or two rows of Python floats and a
    list b, on floats, or None where a row or b has another length or a
    fused multiply-add of the solve leaves ``_fma``'s range (the LAPACK path
    then solves it).

    These are OpenBLAS's ``posv`` operations at that order: ``potf2``
    factors l00 = sqrt(a00), l10 = a10 * (1 / l00) and
    l11 = sqrt(a11 - l10 * l10), failing where a pivot's square is not
    positive, and each triangular solve multiplies by the reciprocal of a
    pivot, with one fused multiply-add per off-diagonal entry:
    y1 = fma(-y0, l10, b1) / l11 forward, x0 = fma(-x1, l10, y0) / l00 back.
    At order 1 x = (b0 * (1 / l00)) * (1 / l00).  The checks come in
    ``chol_solve``'s order."""
    n = len(a)
    row0, row1 = a[0], a[-1]
    if not (len(b) == n and type(row0) is list and len(row0) == n
            and type(row1) is list and len(row1) == n):
        return None
    if n == 1:
        (a00,), (b0,) = row0, b
        if not (math.isfinite(a00) and math.isfinite(b0)):
            raise ValueError("system has non-finite entries")
        if a00 <= 0.0:
            raise NotPositiveDefinite("no positive diagonal entry")
        l00 = math.sqrt(a00)
        _check_pivots(l00, a00)
        r0 = 1.0 / l00
        return [(b0 * r0) * r0]
    (a00, a01), (a10, a11) = row0, row1
    b0, b1 = b
    if not (math.isfinite(a00) and math.isfinite(a01) and math.isfinite(a10)
            and math.isfinite(a11) and math.isfinite(b0) and math.isfinite(b1)):
        raise ValueError("system has non-finite entries")
    max_diag = a11 if a11 > a00 else a00
    if max_diag <= 0.0:
        raise NotPositiveDefinite("no positive diagonal entry")
    if a00 <= 0.0:
        raise _factor_failure(1)
    l00 = math.sqrt(a00)
    r0 = 1.0 / l00
    l10 = a10 * r0
    d11 = a11 - l10 * l10
    if d11 <= 0.0:
        raise _factor_failure(2)
    l11 = math.sqrt(d11)
    _check_pivots(l11 if l11 < l00 else l00, max_diag)
    r1 = 1.0 / l11
    y0 = b0 * r0
    t = _fma(-y0, l10, b1)
    if t is None:
        return None
    x1 = (t * r1) * r1
    t = _fma(-x1, l10, y0)
    if t is None:
        return None
    return [t * r0, x1]


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


def eigvals_sym2(d1: float, e: float, d2: float):
    """Ascending eigenvalues of [[d1, e], [e, d2]] with the bits of
    ``eig_sym``, or None where ``syevd`` would rescale the matrix: its
    largest |entry| outside [_UNSCALED_LOW, _UNSCALED_HIGH], which takes in
    0, inf and NaN.

    At order 2 ``sytd2`` leaves the diagonal and e as they are; ``steqr``
    keeps d1 and d2 when e passes either of its split tests and otherwise
    hands the block to ``laev2``; then it sorts, ties kept in order.  Every
    square is t * t, as gfortran compiles x**2, with no fused multiply-add.
    """
    a1, ae, a2 = abs(d1), abs(e), abs(d2)
    if not (a1 <= _UNSCALED_HIGH and ae <= _UNSCALED_HIGH and a2 <= _UNSCALED_HIGH
            and max(a1, ae, a2) >= _UNSCALED_LOW):
        return None
    small, big = (a2, a1) if a2 < a1 else (a1, a2)
    if not (ae == 0.0 or ae <= (math.sqrt(a1) * math.sqrt(a2)) * _EPS
            or ae * ae <= (_EPS2 * small) * big + _SAFMIN):
        # laev2: rt1 is the eigenvalue of larger magnitude.
        sm = d1 + d2
        adf, ab = abs(d1 - d2), abs(e + e)
        acmx, acmn = (d1, d2) if a1 > a2 else (d2, d1)
        w, z = (adf, ab) if adf > ab else (ab, adf)
        t = z / w
        rt = w * math.sqrt(1.0 + t * t)
        if sm == 0.0:
            d1, d2 = 0.5 * rt, -0.5 * rt
        else:
            d1 = 0.5 * (sm - rt if sm < 0.0 else sm + rt)
            d2 = (acmx / d1) * acmn - (e / d1) * e
    return (d2, d1) if d2 < d1 else (d1, d2)
