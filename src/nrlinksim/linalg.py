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

def gamma_stack(mats: np.ndarray) -> np.ndarray:
    """Condition metric of each channel's 2x2 receive Gram ``M = H @ H^H``.

    The metric is ``sum |m_ij|^2 / det(M)``.  For eigenvalues
    ``s1 >= s2 > 0`` of ``M`` it equals ``s1/s2 + s2/s1``, so it is always
    >= 2 and approaches 2 for well-conditioned channels.  Rank-deficient
    Grams (determinant at most ``DET_EPS * trace^2``) give ``+inf``.  From
    the Gram's row powers ``r0``, ``r1`` and cross term ``m01``, ``num =
    r0^2 + r1^2 + 2|m01|^2`` and ``det = r0 r1 - |m01|^2``.

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
    r = np.einsum("...ij,...ij->...i", mats.real, mats.real)
    r += np.einsum("...ij,...ij->...i", mats.imag, mats.imag)
    r0, r1 = r[..., 0], r[..., 1]
    m01 = np.einsum("...j,...j->...", mats[..., 0, :], np.conj(mats[..., 1, :]))
    cross = m01.real * m01.real + m01.imag * m01.imag
    tr = r0 + r1
    det = r0 * r1 - cross
    out = np.full(det.shape, np.inf)
    np.divide(r0 * r0 + r1 * r1 + 2.0 * cross, det, out=out, where=det > DET_EPS * (tr * tr))
    return out


def _db_edge(k: int) -> float:
    """Smallest float ``x`` with ``round(10 * log10(x)) >= k``, stepped to
    one ulp at a time from ``10^((k - 0.5) / 10)``, a few ulps away."""
    x = 10.0 ** ((k - 0.5) / 10.0)
    while round(10.0 * math.log10(x)) >= k:
        x = math.nextafter(x, 0.0)
    while round(10.0 * math.log10(x)) < k:
        x = math.nextafter(x, math.inf)
    return x


# Edges of the quantizer: from DB_FLOOR + 1 to DB_CEIL dB, the least ratio
# reported as that many dB or more.
_DB_EDGES = np.array([_db_edge(k) for k in range(DB_FLOOR + 1, DB_CEIL + 1)])


def lin_to_int_db(x) -> np.ndarray:
    """Quantize linear power ratios to ``round(10 log10 x)`` integer dB, clamped
    to ``[DB_FLOOR, DB_CEIL]``: 0 maps to the floor and +inf to the ceiling.
    Negative and NaN entries are rejected."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x >= 0.0):
        raise ValueError("power ratios must be nonnegative and not NaN")
    return DB_FLOOR + np.searchsorted(_DB_EDGES, x, side="right")
