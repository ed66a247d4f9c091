"""Geometry of the Lorentz cone and the PSD cone.

A Lorentz point is a plain 1-D array ``y`` with head ``y[0]`` and tail
``y[1:]``; membership in Q_{l+1} means ``y[0] >= ||y[1:]||``.  Symmetric
matrices are 2-D arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import eig_sym, sym


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


def proj_lorentz(y) -> np.ndarray:
    """Euclidean projection onto the second-order cone.

    Three cases: already in the cone (fixed), in the polar cone
    (maps to the origin; the boundary ray ||tail|| = -head is classified
    here so the tail never gets normalized at zero), and the generic
    closed form otherwise.
    """
    y = _lorentz_point(y)
    head, tail = y[0], y[1:]
    tail_norm = math.sqrt(tail @ tail)
    if head >= tail_norm:
        return y.astype(float, copy=True)
    if head <= -tail_norm:
        return np.zeros_like(y, dtype=float)
    coef = 0.5 * (head + tail_norm)
    out = np.empty_like(y, dtype=float)
    out[0] = coef
    out[1:] = _tail_ratio(coef, tail_norm) * tail
    return out


def dist_lorentz(y) -> float:
    """Distance from y to the second-order cone.

    ``||y - proj_lorentz(y)||`` by the projection's three cases, with the
    same float operations on each entry, so the bits are the same.  The
    head and a one-entry tail are read as floats: the numpy dot of one
    entry is its square.  Dots of two or more entries stay numpy dots.
    """
    y = _lorentz_point(y)
    vals = y.tolist()
    head = vals[0]
    if len(vals) == 2:
        tail_norm = math.sqrt(vals[1] * vals[1])
    else:
        tail = y[1:]
        tail_norm = math.sqrt(tail @ tail)
    if head >= tail_norm:
        # An infinite head gives inf - inf in y - proj_lorentz(y): NaN.
        return 0.0 if head < math.inf else math.nan
    if head <= -tail_norm:
        gap = y
    else:
        coef = 0.5 * (head + tail_norm)
        gap = y - _tail_ratio(coef, tail_norm) * y
        gap[0] = head - coef
    return math.sqrt(gap @ gap)


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
    the symmetrized A has a non-finite entry.
    """
    try:
        clipped = np.maximum(eig_sym(a).values, 0.0)
    except ValueError:
        if np.isfinite(sym(a)).all():
            raise
        return math.nan
    return math.sqrt(clipped @ clipped)
