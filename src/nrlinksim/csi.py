"""UE-side CSI engine: rank, precoder, and channel-quality selection.

The pipeline mirrors a receiver that (1) decides the rank from the
conditioning of the receive Gram matrix, (2) exhaustively searches the
precoder codebook with a per-layer MMSE SINR metric, (3) quantizes the
wideband SINR to integer dB and maps it through a rank-dependent CQI
lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .codebook import ConfigurationError, PmiIndex, PrecoderCodebook
from .linalg import BATCH_ELEMS, gamma_stack, lin_to_int_db

# Linear per-layer SINR assigned to active layers when the noise variance
# is exactly zero; equals the +40 dB reporting ceiling.
NOISE_FREE_LAYER_SINR = 1e4

# Relative tolerance of the wideband-metric tie-break.  Codebook entries
# that are equivalent in exact arithmetic can differ by a few ulps in
# float (odd-index beam phases are not exactly unit modulus); candidates
# within this relative band of the maximum count as tied and the lowest
# enumeration index wins.
PMI_TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class CsiConfig:
    """UE reporting configuration.

    ``force_ri`` / ``force_cqi`` pin the corresponding report field (the
    rest of the pipeline still runs); ``gamma_th`` is the conditioning
    threshold below which a subcarrier votes for two layers.
    """

    gamma_th: float = 2.5
    force_ri: int | None = None
    force_cqi: int | None = None

    def __post_init__(self):
        if not self.gamma_th >= 2.0:
            raise ValueError(f"gamma_th must be >= 2, got {self.gamma_th}")
        if self.force_ri not in (None, 1, 2):
            raise ValueError(f"force_ri must be 1 or 2, got {self.force_ri}")
        if self.force_cqi is not None and not 0 <= self.force_cqi <= 15:
            raise ValueError(f"force_cqi must be in [0, 15], got {self.force_cqi}")


@dataclass(frozen=True)
class CsiReport:
    """One wideband CSI report: rank, precoder index, SINR, quality index."""

    ri: int
    pmi: PmiIndex
    wideband_sinr_db: int
    cqi: int


class LayerSinrs(NamedTuple):
    """Per-layer SINR with its (signal, interference+noise) split.

    ``sinr == signal / noise_interf`` elementwise; the split is what
    wideband aggregation sums separately.
    """

    sinr: np.ndarray
    signal: np.ndarray
    noise_interf: np.ndarray


def compute_ri_blocks(mats: np.ndarray, cfg: CsiConfig) -> np.ndarray:
    """Rank decision of each block from its per-subcarrier condition metric.

    ``mats`` has shape ``(n_blocks, n_eval, 2, n_tx)``: the subcarriers of
    each block that need evaluating (one for a flat block, which stands
    for all of its identical subcarriers).  A subcarrier votes for two
    layers when its metric is strictly below ``gamma_th``; a block reports
    rank 2 only when rank-2 votes strictly outnumber rank-1 votes (ties
    fall back to the safe single layer).  Rank-deficient channels, single
    columns included, never vote for two layers; ``force_ri`` overrides
    everything.
    """
    if cfg.force_ri is not None:
        return np.full(mats.shape[0], cfg.force_ri)
    votes2 = np.count_nonzero(gamma_stack(mats) < cfg.gamma_th, axis=-1)
    return np.where(2 * votes2 > mats.shape[1], 2, 1)


def _split_batch(g: np.ndarray, noise_var) -> LayerSinrs:
    """MMSE per-layer SINR split for a stack of effective channels.

    ``g`` has shape ``(..., 2, n_layers)`` (effective channel ``H @ W``
    per block/subcarrier/candidate); ``noise_var`` is a scalar or an array
    broadcasting against ``g.shape[:-2]``, either all zero or all
    positive.  With zero noise, layers with nonzero effective gain clamp
    to ``NOISE_FREE_LAYER_SINR`` (split as that value over 1); zero-gain
    layers get SINR 0.
    """
    noise_var = np.asarray(noise_var, dtype=np.float64)
    norms = np.sum(np.abs(g) ** 2, axis=-2)
    if not np.any(noise_var):
        signal = np.where(norms > 0.0, NOISE_FREE_LAYER_SINR, 0.0)
        denom = np.ones_like(signal)
        return LayerSinrs(signal / denom, signal, denom)
    # Closed form of s_l = [G^H (G G^H + n I)^-1 G]_ll and t_l = 1 - s_l,
    # with nothing that cancels as n -> 0: s_l = x_l / D and t_l = y_l / D,
    # where x_l = e + |g_l|^2, y_l = o_l + n and D = x_l + y_l.  At rank 2
    # e = |det G|^2 / n and o_l is the other column's |g|^2; both are 0 at
    # rank 1.  A layer's signal is s^2, its interference+noise s t, and its
    # SINR s / t = x / y.  Both products of det take their column-0 factor
    # first, so det is exactly 0 when one row of G is a power-of-two
    # multiple of the other, however the complex product rounds.
    n = noise_var[..., None]
    if g.shape[-1] == 2:
        det = g[..., 0, 0] * g[..., 1, 1] - g[..., 1, 0] * g[..., 0, 1]
        x = (np.abs(det) ** 2 / noise_var)[..., None] + norms
        y = norms[..., ::-1] + n
    else:
        x, y = norms, n
    d = x + y
    s, t = x / d, y / d
    return LayerSinrs(x / y, s * s, s * t)


def block_layer_sinrs(mats: np.ndarray, w: np.ndarray, noise_var) -> np.ndarray:
    """Per-layer linear SINRs of each block under its own precoder.

    ``mats`` has shape ``(n_blocks, n_eval, 2, n_tx)``, ``w`` shape
    ``(n_blocks, n_tx, n_layers)`` and ``noise_var`` one value per block.
    Returns shape ``(n_blocks, n_eval, n_layers)``.
    """
    return _split_batch(mats @ w[:, None], np.asarray(noise_var)[:, None]).sinr


def select_pmi_blocks(mats: np.ndarray, noise_var, cb: PrecoderCodebook,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive codebook search maximizing each block's wideband SINR.

    ``mats`` has shape ``(n_blocks, n_eval, 2, n_tx)`` and ``noise_var``
    holds one value per block.  Signal and interference+noise powers are
    accumulated separately over all subcarriers and layers; the candidate
    with the highest ratio of the two sums wins.  Candidates within
    ``PMI_TIE_REL_TOL`` (relative) of the maximum count as tied and the
    lowest enumeration index is returned, so float noise between matrices
    that are equivalent in exact arithmetic cannot flip the choice.

    Returns the winning position in ``cb.entries`` and the winning linear
    wideband ratio, one of each per block.
    """
    if cb.ports != mats.shape[-1]:
        raise ConfigurationError(f"codebook ports {cb.ports} != channel n_tx {mats.shape[-1]}")
    g = np.einsum("bsij,cjl->bcsil", mats, cb.precoders)
    split = _split_batch(g, np.asarray(noise_var)[:, None, None])
    sig = split.signal.sum(axis=(-2, -1))
    nin = split.noise_interf.sum(axis=(-2, -1))
    ratios = np.divide(sig, nin, out=np.zeros_like(sig), where=nin > 0.0)
    best = np.max(ratios, axis=-1, keepdims=True)
    winners = np.argmax(ratios >= best - PMI_TIE_REL_TOL * np.abs(best), axis=-1)
    return winners, np.take_along_axis(ratios, winners[:, None], axis=-1)[:, 0]


# Wideband integer SINR (dB) -> CQI, per reporting rank.  Outside the
# listed band everything at or below 2 dB floors at CQI 4; above the top
# the report saturates (15 for one layer, 13 for two).
_CQI_FROM_SINR_RANK1 = {
    3: 5, 4: 6, 5: 6, 6: 7, 7: 7, 8: 8, 9: 8, 10: 9, 11: 10, 12: 10,
    13: 11, 14: 11, 15: 11, 16: 12, 17: 13, 18: 13, 19: 14,
}
_CQI_FROM_SINR_RANK2 = {
    3: 5, 4: 6, 5: 6, 6: 7, 7: 7, 8: 8, 9: 8, 10: 9, 11: 9, 12: 10,
    13: 10, 14: 11, 15: 11, 16: 12, 17: 12, 18: 12, 19: 12, 20: 12, 21: 12,
}


def select_cqi(wideband_sinr_db: int, ri: int) -> int:
    """CQI from the integer wideband SINR, per reporting rank.

    Total over all integers: below the table it floors at 4, above it
    saturates at 15 (rank 1) or 13 (rank 2), and it is nondecreasing in
    the SINR.
    """
    if ri not in (1, 2):
        raise ValueError(f"ri must be 1 or 2, got {ri}")
    sinr = int(wideband_sinr_db)
    if sinr <= 2:
        return 4
    if ri == 1:
        return _CQI_FROM_SINR_RANK1.get(sinr, 15)
    return _CQI_FROM_SINR_RANK2.get(sinr, 13)


def blocks_per_search(n_eval: int,
                      codebooks: Mapping[tuple[int, int], PrecoderCodebook]) -> int:
    """Blocks of ``n_eval`` subcarriers one call of :func:`make_reports` should get.

    Sized so that the effective-channel array of the largest search,
    (blocks, candidates, subcarriers, 2, layers), stays within
    ``BATCH_ELEMS``.
    """
    per_block = n_eval * 2 * max(len(cb) * cb.rank for cb in codebooks.values())
    return max(1, BATCH_ELEMS // per_block)


def make_reports(mats: np.ndarray, noise_var, cfg: CsiConfig,
                 codebooks: Mapping[tuple[int, int], PrecoderCodebook],
                 ) -> list[CsiReport]:
    """Full UE feedback for each block: RI, PMI, SINR, CQI.

    ``mats`` has shape ``(n_blocks, n_eval, 2, n_tx)`` and ``noise_var``
    holds one value per block.  ``codebooks`` maps ``(ports, rank)`` to
    prebuilt codebooks covering the port count at both ranks.  Memory
    grows with the number of blocks; see :func:`blocks_per_search`.
    """
    n_tx = mats.shape[-1]
    noise_var = np.asarray(noise_var, dtype=np.float64)
    ri = compute_ri_blocks(mats, cfg)
    reports: list[CsiReport] = [None] * len(mats)
    for rank in (1, 2):
        rows = np.flatnonzero(ri == rank)
        if rows.size == 0:
            continue
        cb = codebooks[(n_tx, rank)]
        winners, ratios = select_pmi_blocks(mats[rows], noise_var[rows], cb)
        for row, w, ratio in zip(rows.tolist(), winners.tolist(), ratios.tolist()):
            sinr_db = lin_to_int_db(ratio)
            cqi = cfg.force_cqi if cfg.force_cqi is not None else select_cqi(sinr_db, rank)
            reports[row] = CsiReport(ri=rank, pmi=cb.entries[w][0],
                                     wideband_sinr_db=sinr_db, cqi=cqi)
    return reports
