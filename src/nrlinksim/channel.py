"""Channel realizations: single-tap Rician block fading, received power, estimates.

Every channel is a block array: one ``(2, n_tx)`` matrix per coherence
block, shape ``(n_blocks, 2, n_tx)``.  Both channel models are flat in
frequency, so one matrix stands for every subcarrier of its block; only
an estimate with error spans the band, shape ``(n_blocks, n_sc, 2, n_tx)``.
"""

from __future__ import annotations

import numpy as np

# Leading stream tags keep the independent random streams of one seed
# (LOS phase, scattered fading, estimation noise) from colliding.
_LOS_STREAM = 11
_NLOS_STREAM = 12
_EST_STREAM = 13


def rice1_blocks(seed: int, k_factor: float, n_tx: int, block_ids) -> np.ndarray:
    """Single-tap Rician block-fading draws, one ``(2, n_tx)`` matrix per block.

    The line-of-sight component is the all-ones matrix carrying one
    uniform phase drawn per ``seed`` (shared by all blocks of a drop);
    the scattered component is redrawn i.i.d. CN(0, 1) per
    ``(seed, block_id)``, so a block's draw does not depend on which other
    blocks are drawn with it.  Entry powers satisfy ``E|h|^2 == 1`` for
    every K factor.  Returns shape ``(len(block_ids), 2, n_tx)``.
    """
    if k_factor < 0:
        raise ValueError(f"k_factor must be >= 0, got {k_factor}")
    if n_tx not in (2, 4):
        raise ValueError(f"n_tx must be 2 or 4, got {n_tx}")
    theta = np.random.default_rng([_LOS_STREAM, seed]).uniform(0.0, 2.0 * np.pi)
    los = np.full((2, n_tx), np.exp(1j * theta), dtype=np.complex128)
    scat = np.empty((len(block_ids), 2, n_tx), dtype=np.complex128)
    for i, block_id in enumerate(block_ids):
        rng = np.random.default_rng([_NLOS_STREAM, seed, block_id])
        scat[i] = rng.standard_normal((2, n_tx)) + 1j * rng.standard_normal((2, n_tx))
    scat /= np.sqrt(2.0)
    h = np.sqrt(k_factor / (k_factor + 1.0)) * los + np.sqrt(1.0 / (k_factor + 1.0)) * scat
    if not np.all(np.isfinite(h)):
        raise ValueError("channel entries must be finite")
    return h


def block_rx_power(h: np.ndarray, n_sc: int) -> np.ndarray:
    """Mean received power per transmit antenna of each block: mean of ``|h|^2``.

    The mean runs over the band, ``n_sc`` identical copies of ``h[b]``, and
    not over the one matrix: the two differ in the last bits, and the
    noise levels, hence every output, were fixed with the mean over the
    band.  Equals the mean over subcarriers and receive antennas of
    ``row_norm^2 / n_tx``.  Returns shape ``(n_blocks,)``.
    """
    p = np.abs(h) ** 2
    return np.mean(np.broadcast_to(p[:, None], (p.shape[0], n_sc) + p.shape[1:]),
                   axis=(1, 2, 3))


def snr_noise_variance(snr_db: float, p_rx):
    """Per-receive-antenna noise variance ``P_rx / 10^(snr/10)``.

    ``p_rx`` is a mean received power per transmit antenna, or an array of
    them; every one must be positive.
    """
    if np.any(np.asarray(p_rx) <= 0.0):
        raise ValueError("cannot set an SNR on a zero channel; use a direct variance")
    return p_rx / 10.0 ** (snr_db / 10.0)


def estimate_blocks(h: np.ndarray, est_error_var: float, seed: int,
                    block_ids, n_sc: int) -> np.ndarray:
    """Channel estimate seen by the UE for each block ``h[i]`` with id ``block_ids[i]``.

    Adds i.i.d. CN(0, est_error_var) perturbation to every entry of every
    one of the ``n_sc`` subcarriers, drawn from ``(seed, block_ids[i])``,
    so a block's estimate does not depend on which other blocks are
    estimated with it.  Returns the subcarriers that need evaluating,
    shape ``(n_blocks, n_eval, 2, n_tx)``: one per block when the error
    variance is zero (the estimate is the flat channel itself), else all
    ``n_sc``.
    """
    if est_error_var < 0:
        raise ValueError(f"est_error_var must be >= 0, got {est_error_var}")
    if est_error_var == 0:
        return h[:, None]
    shape = (n_sc,) + h.shape[1:]
    out = np.empty((len(h),) + shape, dtype=np.complex128)
    for i, block_id in enumerate(block_ids):
        rng = np.random.default_rng([_EST_STREAM, seed, block_id])
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        noise *= np.sqrt(est_error_var / 2.0)
        out[i] = h[i] + noise
    return out


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed derived from integer parts (e.g. run seed, drop)."""
    seq = np.random.SeedSequence(list(parts))
    return int(seq.generate_state(1, np.uint64)[0])
