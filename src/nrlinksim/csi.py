"""UE-side CSI engine: rank, precoder, and channel-quality selection.

The pipeline mirrors a receiver that (1) decides the rank from the
conditioning of the receive Gram matrix, (2) exhaustively searches the
precoder codebook with a per-layer MMSE SINR metric, (3) quantizes the
wideband SINR to integer dB and maps it through a rank-dependent CQI
lookup.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .codebook import ConfigurationError, PrecoderCodebook, build_codebook

if TYPE_CHECKING:
    from .scenario import CsiConfig

# Relative determinant threshold below which a Gram matrix is treated as
# rank deficient (condition metric pinned to +inf).
DET_EPS = 1e-12

# Reporting range of the integer-dB quantizer.
DB_FLOOR = -10
DB_CEIL = 40

# Linear SINR of each active layer at zero noise variance: the reporting ceiling.
NOISE_FREE_LAYER_SINR = 10.0 ** (DB_CEIL / 10)

# Upper bound on the elements of the largest temporary array one batched
# step over coherence blocks, over the (report, block) pairs of the pair
# SINRs, or over the sweep points of a HARQ pass, builds (:func:`chunks`).
# A step gets at least one item, which keeps memory as low as processing
# them one by one.  At 2^15 a full-band 2x4 drop at three noise points is
# estimated 19 blocks at a time and searched 3 rank-1 or 1 rank-2 blocks
# at a time, a flat one hundreds.  On that drop 2^16 (38; 6 and 3 blocks)
# was within a few percent as fast and peaked 2.6 MB higher (tracemalloc).
BATCH_ELEMS = 1 << 15

# Relative tolerance of the wideband-metric tie-break.  Precoders that
# are equivalent in exact arithmetic can differ by a few ulps in float
# (odd-index beam phases are not exactly unit modulus); candidates within
# this relative band of the maximum count as tied and the first row of
# the codebook wins.
PMI_TIE_REL_TOL = 1e-12


def chunks(n: int, elems_per_item: int) -> list[slice]:
    """The slices that cover ``range(n)`` in order, each of as many items of
    ``elems_per_item`` elements as fit ``BATCH_ELEMS``, at least one; the
    last may hold fewer."""
    step = max(1, BATCH_ELEMS // elems_per_item)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


class CsiReports(NamedTuple):
    """Wideband CSI reports of a run of blocks: one entry per block in each column.

    ``ri`` is the reported rank (1 or 2), ``pmi`` the row of the winning
    precoder in ``build_codebook(n_tx, ri).precoders``,
    ``wideband_sinr_db`` the integer-dB wideband SINR and ``cqi`` the
    channel-quality index.
    """

    ri: np.ndarray
    pmi: np.ndarray
    wideband_sinr_db: np.ndarray
    cqi: np.ndarray


def gamma_stack(mats: np.ndarray) -> np.ndarray:
    """Condition metric of each channel's 2x2 receive Gram ``M = H @ H^H``.

    ``mats`` is a ``(..., 2, n_tx)`` stack of channel matrices, not Grams;
    the metrics have shape ``mats.shape[:-2]``.  The metric is ``sum
    |m_ij|^2 / det(M)``.  For eigenvalues ``s1 >= s2 > 0`` of ``M`` it
    equals ``s1/s2 + s2/s1``, so it is always >= 2 and approaches 2 for
    well-conditioned channels.  Rank-deficient Grams (determinant at most
    ``DET_EPS * trace^2``) give ``+inf``.  From the Gram's row powers
    ``r0``, ``r1`` and cross term ``m01``, ``num = r0^2 + r1^2 +
    2|m01|^2`` and ``det = r0 r1 - |m01|^2``.
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


def compute_ri_blocks(mats: np.ndarray, cfg: CsiConfig) -> np.ndarray:
    """Rank decision of each block from its per-subcarrier condition metric.

    ``mats`` has shape ``(n_blocks, n_eval, 2, n_tx)``: the subcarriers of
    each block that need evaluating (one for a flat block, which stands
    for all of its identical subcarriers).  A subcarrier votes for two
    layers when its metric, :func:`gamma_stack`, is strictly below
    ``gamma_th``; a block reports rank 2 only when rank-2 votes strictly
    outnumber rank-1 votes (ties fall back to the safe single layer).
    Rank-deficient channels, single columns included, never vote for two
    layers; ``force_ri`` overrides everything.
    """
    if cfg.force_ri is not None:
        return np.full(mats.shape[0], cfg.force_ri)
    votes2 = np.count_nonzero(gamma_stack(mats) < cfg.gamma_th, axis=-1)
    return np.where(2 * votes2 > mats.shape[1], 2, 1)


class Scratch:
    """Temporaries shared by a run of SINR passes, one growing buffer per name.

    A full-band search builds about 1 MB of temporaries per block.  Made
    afresh, they are freed on top of the heap, which malloc may hand back
    to the kernel and fault in again for the next block, or not, depending
    on where the heap's last live block happens to sit: the same sweep
    then runs at one of two speeds.  Calling a ``Scratch`` with ``(name,
    shape, dtype)`` returns an uninitialized view of the buffer kept for
    ``name``, grown to the largest size asked for, so a run of searches
    faults its temporaries in once.  Views of one name share memory.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, type], np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], dtype: type = float) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get((name, dtype))
        if buf is None or buf.size < size:
            buf = self._buffers[(name, dtype)] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _split_batch(g: np.ndarray, noise_var, empty: Scratch) -> tuple[np.ndarray, ...]:
    """MMSE signal and interference+noise power of each layer of a stack of
    effective channels, as factors ``(p, s, t)``: signal ``p * s``,
    interference+noise ``s * t``.

    ``g`` holds effective channels ``H @ W`` as receive-row planes, shape
    ``(2, ..., n_layers, n_cand)``: ``g[r, ..., l, k]`` is row ``r`` of
    layer ``l`` of candidate ``k``.  ``noise_var`` is a scalar or an array,
    with no negative entry, broadcasting against ``g.shape[1:]`` with a
    layer axis of 1.  Where the noise is positive, a layer of SINR
    ``x / y`` gets ``s = x / (x + y)``, ``t = y / (x + y)`` and ``p = s``
    (one array when every noise is), so that a sum over layers can take
    each product in one pass.  With zero noise, layers with nonzero
    effective gain clamp to ``NOISE_FREE_LAYER_SINR`` over 1, zero-gain
    layers get 0 over 1: ``p`` is that signal and ``s = t = 1``, so both
    products are exact.  Every factor has the broadcast shape of
    ``g.shape[1:]`` and ``noise_var``; temporaries come from ``empty``.
    """
    noise_var = np.asarray(noise_var, dtype=np.float64)
    shape = g.shape[1:]
    # |g|^2 of each receive row as re^2 + im^2, then the column norms as
    # one add of the two rows.
    rows = []
    for name, plane in zip(("power_0", "power_1"), g):
        power = np.square(plane.real, out=empty(name, shape))
        power += np.square(plane.imag, out=empty("power_im", shape))
        rows.append(power)
    norms = np.add(*rows, out=rows[0])
    if not np.all(noise_var):
        # Kept only where the noise is 0; comparing with it keeps its noise-point axes.
        signal = np.where(norms > noise_var, NOISE_FREE_LAYER_SINR, 0.0)
        one = np.ones_like(signal)
        if not np.any(noise_var):
            return signal, one, one
        noisy = _split_batch(g, np.where(noise_var > 0.0, noise_var, 1.0), empty)
        return tuple(np.where(noise_var > 0.0, a, b) for a, b in zip(noisy, (signal, one, one)))
    # Closed form of s_l = [G^H (G G^H + n I)^-1 G]_ll and t_l = 1 - s_l,
    # with nothing that cancels as n -> 0: s_l = x_l / D and t_l = y_l / D,
    # where x_l = e + |g_l|^2, y_l = o_l + n and D = x_l + y_l.  At rank 2
    # e = |det G|^2 / n and o_l is the other column's |g|^2; both are 0 at
    # rank 1.  Both products of det take their column-0 factor first, so
    # det is exactly 0 when one row of G is a power-of-two multiple of the
    # other, however the complex product rounds.
    # The per-point terms are written out whole before they meet a whole
    # array: NumPy buffers a broadcast operand of a ufunc whose other
    # operands are whole, when the rows it iterates are short.
    full = np.broadcast_shapes(shape, noise_var.shape)
    x, y = empty("x", full), empty("y", full)
    if g.shape[-2] == 2:
        base = shape[:-2] + (1,) + shape[-1:]
        # One contiguous plane per (row, layer), so that no factor is strided.
        planes = empty("planes", (2, 2) + base, complex)
        planes[...] = np.moveaxis(g, -2, 1)[..., None, :]
        (g00, g01), (g10, g11) = planes
        det = np.multiply(g00, g11, out=empty("det", base, complex))
        det -= np.multiply(g10, g01, out=empty("det_b", base, complex))
        e = np.square(det.real, out=empty("e", base))
        e += np.square(det.imag, out=empty("e_im", base))
        x[...] = e
        x /= noise_var
        x += norms
        y[...] = norms[..., ::-1, :]
        y += noise_var
    else:
        x[...], y[...] = norms, noise_var
    d = np.add(x, y, out=empty("d", full))
    s = np.divide(x, d, out=x)
    return s, s, np.divide(y, d, out=d)


def layer_powers(mats: np.ndarray, cb: PrecoderCodebook, noise_var, scratch: Scratch,
                 pmi: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """MMSE signal and interference+noise power of each layer of ``mats`` under ``cb``'s precoders.

    The PMI search and the pair pass both come here.  The powers come as
    :func:`_split_batch`'s factors ``(p, s, t)``: signal ``p * s``,
    interference+noise ``s * t``.  ``mats`` has shape ``(n_blocks, n_eval,
    2, n_tx)`` and ``noise_var`` shape ``(..., n_blocks)``.  Without ``pmi``
    the factors have shape ``(..., n_blocks, n_eval, rank, n_cand)``, one
    entry per candidate; with ``pmi``, shape ``(..., n_blocks)`` like
    ``noise_var``, they have shape ``(..., n_blocks, n_eval, rank, 1)``,
    block ``b`` under candidate ``pmi[..., b]``.  A negative or NaN noise
    variance raises ``ValueError``.

    Every candidate's effective channels ``H @ W`` come from one 2-D BLAS
    product into ``scratch``: the rows of ``mats``, receive row first, by
    the whole codebook, ``cb.columns``, as receive-row planes ``(2,
    n_blocks, n_eval, rank, n_cand)``; ``pmi`` gathers from them.  A
    product over a subset of the rows rounds like those rows of the whole
    product, but one by a subset of the columns may not (a single column
    takes NumPy's matrix-vector path), so a candidate's powers have the
    same bits with and without ``pmi``, whichever blocks come together.
    """
    noise_var = np.asarray(noise_var)
    if not np.all(noise_var >= 0.0):
        raise ValueError("noise_var must be nonnegative and not NaN")
    n_blocks, n_eval, _, n_tx = mats.shape
    rows = scratch("rows", (2, n_blocks, n_eval, n_tx), complex)
    np.copyto(rows, mats.transpose(2, 0, 1, 3))
    g = scratch("g", rows.shape[:-1] + (cb.rank, len(cb.precoders)), complex)
    np.matmul(rows.reshape(-1, n_tx), cb.columns, out=g.reshape(-1, cb.columns.shape[1]))
    if pmi is not None:
        pmi = np.asarray(pmi)
        g = np.take_along_axis(np.expand_dims(g, tuple(range(1, pmi.ndim))),
                               pmi[None, ..., None, None, None], axis=-1)
    return _split_batch(g, noise_var[..., None, None, None], scratch)


def select_pmi_blocks(mats: np.ndarray, noise_var, cb: PrecoderCodebook,
                      scratch: Scratch | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive codebook search maximizing each block's wideband SINR.

    ``mats`` has shape ``(n_blocks, n_eval, 2, n_tx)`` and ``noise_var``
    shape ``(..., n_blocks)``, one value per block at each noise point.
    Signal and interference+noise powers are accumulated separately over
    all subcarriers and layers; the candidate with the highest ratio of the
    two sums wins.  Candidates within ``PMI_TIE_REL_TOL`` (relative) of the
    maximum count as tied and the lowest enumeration index is returned, so
    float noise between matrices that are equivalent in exact arithmetic
    cannot flip the choice.

    Returns the winning row of ``cb.precoders`` and the winning linear
    wideband ratio, each of ``noise_var``'s shape.  Temporaries come from
    ``scratch``, or from a new :class:`Scratch` when none is given.
    """
    if cb.ports != mats.shape[-1]:
        raise ConfigurationError(f"codebook ports {cb.ports} != channel n_tx {mats.shape[-1]}")
    p, s, t = layer_powers(mats, cb, noise_var, Scratch() if scratch is None else scratch)
    # Each sum of products in one pass.  With two or more candidates it adds
    # in the order of a sum over the written-out products, so no bit moves.
    sig = np.einsum("...frc,...frc->...c", p, s)
    nin = np.einsum("...frc,...frc->...c", s, t)
    ratios = np.divide(sig, nin, out=np.zeros_like(sig), where=nin > 0.0)
    best = np.max(ratios, axis=-1, keepdims=True)
    winners = np.argmax(ratios >= best - PMI_TIE_REL_TOL * np.abs(best), axis=-1)
    return winners, np.take_along_axis(ratios, winners[..., None], axis=-1)[..., 0]


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


# Wideband integer SINR (dB) -> CQI, per reporting rank, over the listed band.
_CQI_FROM_SINR_RANK1 = {
    3: 5, 4: 6, 5: 6, 6: 7, 7: 7, 8: 8, 9: 8, 10: 9, 11: 10, 12: 10,
    13: 11, 14: 11, 15: 11, 16: 12, 17: 13, 18: 13, 19: 14,
}
_CQI_FROM_SINR_RANK2 = {
    3: 5, 4: 6, 5: 6, 6: 7, 7: 7, 8: 8, 9: 8, 10: 9, 11: 9, 12: 10,
    13: 10, 14: 11, 15: 11, 16: 12, 17: 12, 18: 12, 19: 12, 20: 12, 21: 12,
}
# CQI at rank ``ri`` and integer wideband SINR ``db`` at ``[ri - 1, db - DB_FLOOR]``:
# at or below 2 dB it floors at 4, above the band it saturates (15 for one
# layer, 13 for two).
CQI_FROM_SINR = np.array([
    [4 if db <= 2 else table.get(db, top) for db in range(DB_FLOOR, DB_CEIL + 1)]
    for table, top in ((_CQI_FROM_SINR_RANK1, 15), (_CQI_FROM_SINR_RANK2, 13))])


def make_reports(mats: np.ndarray, noise_var, cfg: CsiConfig,
                 scratch: Scratch | None = None) -> CsiReports:
    """Full UE feedback for each block: RI, PMI, SINR, CQI.

    ``mats`` has shape ``(n_blocks, n_eval, 2, n_tx)`` and ``noise_var``
    shape ``(..., n_blocks)``, one value per block at each noise point;
    ``ri`` has one entry per block, the other columns ``noise_var``'s shape.
    The blocks of each rank are searched together over
    ``build_codebook(n_tx, rank)``, a few at a time to bound memory
    (:func:`chunks`), whatever blocks of the other rank lie between them;
    ``scratch`` is passed to every :func:`select_pmi_blocks`.
    """
    n_eval, n_tx = mats.shape[1], mats.shape[-1]
    noise_var = np.asarray(noise_var, dtype=np.float64)
    n_points = math.prod(noise_var.shape[:-1])
    ri = compute_ri_blocks(mats, cfg)
    pmi = np.zeros(noise_var.shape, dtype=np.intp)
    ratio = np.zeros(noise_var.shape)
    for rank in (1, 2):
        cb = build_codebook(n_tx, rank)
        rows = np.flatnonzero(ri == rank)
        # The effective channels and their powers are (2, blocks, subcarriers, layers,
        # candidates), the SINRs' per-point terms (points, blocks, subcarriers, layers,
        # candidates); no array has both the points axis and the two receive rows.
        for part in chunks(rows.size, n_eval * max(n_points, 2) * len(cb.precoders) * cb.rank):
            sub = rows[part]
            pmi[..., sub], ratio[..., sub] = select_pmi_blocks(
                mats[sub], noise_var[..., sub], cb, scratch)
    sinr_db = lin_to_int_db(ratio)
    if cfg.force_cqi is None:
        cqi = CQI_FROM_SINR[ri - 1, sinr_db - DB_FLOOR]
    else:
        cqi = np.full(noise_var.shape, cfg.force_cqi)
    return CsiReports(ri, pmi, sinr_db, cqi)
