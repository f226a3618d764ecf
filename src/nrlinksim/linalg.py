"""Small complex linear-algebra kernels shared by the CSI pipeline.

Everything here operates on stacks of 2-row channel matrices and of the
2x2 matrices derived from them, plus the integer-dB quantizer used for
wideband SINR reporting.
"""

from __future__ import annotations

import math

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


def gamma_stack(mats: np.ndarray) -> np.ndarray:
    """Condition metric of each channel's 2x2 receive Gram ``M = H @ H^H``.

    The metric is ``sum |m_ij|^2 / det(M)``.  For eigenvalues
    ``s1 >= s2 > 0`` of ``M`` it equals ``s1/s2 + s2/s1``, so it is always
    >= 2 and approaches 2 for well-conditioned channels.  Rank-deficient
    Grams (determinant at most ``DET_EPS * trace^2``) give ``+inf``.

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


def lin_to_int_db(x: float) -> int:
    """Quantize a linear power ratio to integer dB, clamped to
    ``[DB_FLOOR, DB_CEIL]``.

    ``x == 0`` maps to the floor and ``x == +inf`` to the ceiling; negative
    inputs are rejected.
    """
    if x < 0:
        raise ValueError(f"power ratio must be nonnegative, got {x}")
    if x == 0:
        return DB_FLOOR
    if math.isinf(x):
        return DB_CEIL
    return int(min(max(round(10.0 * math.log10(x)), DB_FLOOR), DB_CEIL))
