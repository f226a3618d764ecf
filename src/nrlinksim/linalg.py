"""Small complex linear-algebra kernels shared by the CSI pipeline.

Everything here operates on 2-row channel matrices and on the 2x2 Gram
matrices derived from them, plus the integer-dB quantizer used for
wideband SINR reporting.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Relative determinant threshold below which a Gram matrix is treated as
# rank deficient (condition metric pinned to +inf).
DET_EPS = 1e-12

# Reporting range of the integer-dB quantizer.
DB_FLOOR = -10
DB_CEIL = 40

# Upper bound on the elements of the largest temporary array one batched
# step over coherence blocks builds.  Flat blocks fit by the dozen; a
# block of full-band estimates gets a step of its own, which keeps memory
# as low as processing blocks one by one.
BATCH_ELEMS = 1 << 13


class DimensionError(ValueError):
    """Raised when a matrix does not have the shape an operation requires."""


def as_cmatrix(m) -> np.ndarray:
    """Validate array-like input and return it as a complex128 matrix.

    Parameters
    ----------
    m : array_like
        Anything convertible to a 2-D complex array with at least one row
        and one column.

    Returns
    -------
    np.ndarray
        The input as a C-contiguous complex128 array.

    Raises
    ------
    DimensionError
        If the input is not 2-D or has a zero-length axis.
    ValueError
        If any entry is non-finite.
    """
    arr = np.ascontiguousarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def gram2(h) -> np.ndarray:
    """Gram matrix ``H @ H^H`` of a 2-row channel matrix.

    The receive-side Gram keeps the result 2x2 for any number of transmit
    antennas; its nonzero spectrum is the same as the transmit-side one.
    """
    h = as_cmatrix(h)
    if h.shape[0] != 2:
        raise DimensionError(f"gram2 needs a 2-row matrix, got {h.shape[0]} rows")
    return h @ h.conj().T


class EigenPair2(NamedTuple):
    """Eigenvalues of a 2x2 Hermitian PSD matrix, sorted descending."""

    sigma1: float
    sigma2: float


def eig2(m) -> EigenPair2:
    """Closed-form eigenvalues of a 2x2 Hermitian PSD matrix.

    Returns the pair sorted descending.  Tiny negative values caused by
    round-off are clamped to zero so downstream ratios stay meaningful.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (2, 2):
        raise DimensionError(f"eig2 needs a 2x2 matrix, got shape {m.shape}")
    a = m[0, 0].real
    c = m[1, 1].real
    half_tr = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), abs(m[0, 1]))
    return EigenPair2(max(half_tr + disc, 0.0), max(half_tr - disc, 0.0))


def gamma_metric(m) -> float:
    """Condition metric of a 2x2 Gram matrix: ``sum |m_ij|^2 / det(M)``.

    For eigenvalues ``s1 >= s2 > 0`` this equals ``s1/s2 + s2/s1`` and is
    therefore always >= 2, approaching 2 for well-conditioned channels.
    Rank-deficient matrices (determinant below ``DET_EPS * trace^2``)
    return ``+inf``.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (2, 2):
        raise DimensionError(f"gamma_metric needs a 2x2 matrix, got shape {m.shape}")
    num = float(np.sum(np.abs(m) ** 2))
    tr = m[0, 0].real + m[1, 1].real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    if det <= DET_EPS * tr * tr:
        return math.inf
    return num / det


def gamma_stack(mats: np.ndarray) -> np.ndarray:
    """Vectorized :func:`gamma_metric` over a stack of 2-row channels.

    Parameters
    ----------
    mats : np.ndarray
        Shape ``(..., 2, n_tx)`` stack of channel matrices (not Grams).

    Returns
    -------
    np.ndarray
        Shape ``mats.shape[:-2]`` array of condition metrics, ``+inf``
        where the Gram determinant vanishes.
    """
    g = mats @ np.conj(np.swapaxes(mats, -1, -2))
    num = np.sum(np.abs(g) ** 2, axis=(-2, -1))
    tr = (g[..., 0, 0] + g[..., 1, 1]).real
    det = (g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]).real
    ok = det > DET_EPS * tr * tr
    out = np.full(mats.shape[:-2], np.inf)
    np.divide(num, det, out=out, where=ok)
    return out


def inv2_stack(m: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a stack of 2x2 matrices, shape ``(..., 2, 2)``.

    Callers must guarantee the matrices are invertible (here they are
    always ``G G^H + noise * I`` with positive noise).
    """
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    return out / det[..., None, None]


def lin_to_int_db(x: float, lo: int = DB_FLOOR, hi: int = DB_CEIL) -> int:
    """Quantize a linear power ratio to integer dB, clamped to ``[lo, hi]``.

    ``x == 0`` maps to the floor and ``x == +inf`` to the ceiling; negative
    inputs are rejected.
    """
    if x < 0:
        raise ValueError(f"power ratio must be nonnegative, got {x}")
    if x == 0:
        return lo
    if math.isinf(x):
        return hi
    return int(min(max(round(10.0 * math.log10(x)), lo), hi))
