"""Geometry of the Lorentz cone and the PSD cone.

A Lorentz point is a plain 1-D array ``y``, or a list of floats, with head
``y[0]`` and tail ``y[1:]``; membership in Q_{l+1} means
``y[0] >= ||y[1:]||``.  Symmetric matrices are 2-D arrays.  The PSD
distance of a 2x2 matrix runs on Python floats (``dist_psd_minus2``,
through ``numerics.eigvals_sym2``) with the bits of the LAPACK path every
other order takes.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import eig_sym, eigvals_sym2, norm, sym


def _lorentz_point(y) -> np.ndarray:
    """y as a float array; ValueError unless it is 1-D with at least 2 entries."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] < 2:
        raise ValueError(f"Lorentz point needs 1-D total dimension >= 2, got shape {y.shape}")
    return y


def _tail_ratio(coef: float, tail_norm: float) -> float:
    """coef / ||tail|| of the generic case.  A NaN head leaves the tail norm
    possibly 0, and an infinite or NaN tail entry makes it inf or NaN;
    both give NaN, as the division would, without its warning."""
    return coef / tail_norm if 0.0 < tail_norm < math.inf else math.nan


def _midpoint(head: float, tail_norm: float) -> float:
    """0.5 * (head + ||tail||), the head of the generic case's projection.
    Where that sum overflows, 0.5 * head + 0.5 * ||tail||, so a finite
    point keeps a finite projection; every other result keeps its bits."""
    coef = 0.5 * (head + tail_norm)
    return coef if coef != math.inf else 0.5 * head + 0.5 * tail_norm


def proj_lorentz(y) -> np.ndarray:
    """Euclidean projection onto the second-order cone.

    Three cases: already in the cone (fixed), in the polar cone
    (maps to the origin; the boundary ray ||tail|| = -head is classified
    here so the tail never gets normalized at zero), and the generic
    closed form otherwise.
    """
    y = _lorentz_point(y)
    head, tail = float(y[0]), y[1:]
    tail_norm = norm(tail)
    if head >= tail_norm:
        return y.astype(float, copy=True)
    if head <= -tail_norm:
        return np.zeros_like(y, dtype=float)
    coef = _midpoint(head, tail_norm)
    out = np.empty_like(y, dtype=float)
    out[0] = coef
    out[1:] = _tail_ratio(coef, tail_norm) * tail
    return out


def dist_lorentz(y) -> float:
    """Distance from y to the second-order cone.

    ``||y - proj_lorentz(y)||`` by the projection's three cases, with the
    same float operations on each entry, so the bits are the same.  A list
    of two or more entries with a Python float head (a constraint value of
    ``problems``) is read as it is; any other y, a list of numpy scalars
    say, as a float array's ``tolist``.  The generic gap (head - coef,
    t - r t) is numpy's y - r y with its head replaced.
    """
    if not (type(y) is list and len(y) > 1 and type(y[0]) is float):
        y = _lorentz_point(y).tolist()
    head, tail = y[0], y[1:]
    tail_norm = norm(tail)
    if head >= tail_norm:
        # An infinite head gives inf - inf in y - proj_lorentz(y): NaN.
        return 0.0 if head < math.inf else math.nan
    if head <= -tail_norm:
        return norm(y)
    coef = _midpoint(head, tail_norm)
    ratio = _tail_ratio(coef, tail_norm)
    gap = [head - coef]
    for t in tail:
        gap.append(t - ratio * t)
    return norm(gap)


def proj_psd(a) -> np.ndarray:
    """Projection [A]_+ onto the positive semidefinite cone."""
    a = sym(a)
    decomp = eig_sym(a)
    clipped = np.maximum(decomp.values, 0.0)
    return sym((decomp.vectors * clipped) @ decomp.vectors.T)


def dist_psd_minus(a) -> float:
    """Distance from A to the negative semidefinite cone.

    Equals the Frobenius norm of [A]_+, i.e. dist^2 = trace([A]_+^2): the
    norm of the clipped eigenvalues, without rebuilding [A]_+.  NaN when
    the symmetrized A has a non-finite entry.  A 2x2 A takes
    ``dist_psd_minus2``, same bits.
    """
    a = np.asarray(a, dtype=float)
    if a.shape == (2, 2):
        return dist_psd_minus2(*a.ravel().tolist())
    return _dist_psd_minus_eig(a)


def dist_psd_minus_entries(entries: list, order: int) -> float:
    """``dist_psd_minus`` of the matrix of an order with these row-major
    entries (Python floats): ``dist_psd_minus2`` at order 2, without an
    array, else the matrix on the LAPACK path; same bits."""
    if order == 2:
        return dist_psd_minus2(*entries)
    return dist_psd_minus(np.reshape(entries, (order, order)))


def dist_psd_minus2(a11: float, a12: float, a21: float, a22: float) -> float:
    """``dist_psd_minus`` of [[a11, a12], [a21, a22]] on floats, bit for bit.

    Symmetrizes as ``sym`` does and clips as ``np.maximum(v, 0.0)`` does
    (-0.0 is kept), then takes the norm of the positive values.  Where
    ``eigvals_sym2`` returns None the LAPACK path runs.
    """
    values = eigvals_sym2((a11 + a11) * 0.5, (a21 + a12) * 0.5, (a22 + a22) * 0.5)
    if values is None:
        return _dist_psd_minus_eig(np.array([[a11, a12], [a21, a22]]))
    lo, hi = values
    if lo > 0.0:
        return norm(values)
    return norm([hi]) if hi > 0.0 else 0.0


def _dist_psd_minus_eig(a) -> float:
    """``dist_psd_minus`` on ``eig_sym``'s eigenvalues, finite for a finite A (``norm``)."""
    try:
        clipped = np.maximum(eig_sym(a).values, 0.0)
    except ValueError:
        if np.isfinite(sym(a)).all():
            raise
        return math.nan
    return norm(clipped)
