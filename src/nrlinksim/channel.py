"""Channel realizations: fixed matrices and single-tap Rician block fading."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import BATCH_ELEMS, DimensionError, as_cmatrix

# Leading stream tags keep the independent random streams of one seed
# (LOS phase, scattered fading, estimation noise) from colliding.
_LOS_STREAM = 11
_NLOS_STREAM = 12
_EST_STREAM = 13

ALLOWED_N_TX = (1, 2, 4)


@dataclass
class ChannelGrid:
    """Per-subcarrier channel matrices for one coherence block.

    ``matrices`` has shape ``(n_sc, n_rx, n_tx)``.  ``flat`` records that
    every subcarrier holds the same matrix (true for single-tap models),
    which lets consumers evaluate a single subcarrier and scale the
    accumulated sums; the results are identical because the summands are.
    """

    matrices: np.ndarray
    coherence_block_id: int = 0
    flat: bool = False

    def __post_init__(self):
        arr = np.asarray(self.matrices, dtype=np.complex128)
        if arr.ndim != 3:
            raise DimensionError(f"expected (n_sc, n_rx, n_tx), got shape {arr.shape}")
        n_sc, n_rx, n_tx = arr.shape
        if n_sc < 1:
            raise DimensionError("grid needs at least one subcarrier")
        if n_rx != 2:
            raise DimensionError(f"n_rx must be 2, got {n_rx}")
        if n_tx not in ALLOWED_N_TX:
            raise DimensionError(f"n_tx must be one of {ALLOWED_N_TX}, got {n_tx}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("channel entries must be finite")
        self.matrices = arr

    @property
    def n_sc(self) -> int:
        return self.matrices.shape[0]

    @property
    def n_rx(self) -> int:
        return self.matrices.shape[1]

    @property
    def n_tx(self) -> int:
        return self.matrices.shape[2]

    def eval_matrices(self) -> np.ndarray:
        """Subcarriers that actually need evaluating (one if flat)."""
        return self.matrices[:1] if self.flat else self.matrices


@dataclass(frozen=True)
class NoiseSpec:
    """Resolved receiver-noise description for one coherence block.

    ``mode`` is ``"noise_free"`` (variance exactly 0), ``"snr"`` (variance
    derived from a target SNR and the grid's mean per-antenna power), or
    ``"variance"`` (directly specified).
    """

    mode: str
    variance: float
    snr_db: float | None = None

    def __post_init__(self):
        if self.mode not in ("noise_free", "snr", "variance"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.mode == "noise_free":
            if self.variance != 0.0:
                raise ValueError("noise_free requires variance 0")
        elif not self.variance > 0.0:
            raise ValueError(f"{self.mode} mode requires variance > 0, got {self.variance}")


def fixed_grid(h, n_sc: int) -> ChannelGrid:
    """Grid holding the same 2-row matrix on every subcarrier."""
    h = as_cmatrix(h)
    if h.shape[0] != 2:
        raise DimensionError(f"channel must have 2 rows, got {h.shape[0]}")
    if n_sc < 1:
        raise ValueError(f"n_sc must be >= 1, got {n_sc}")
    return ChannelGrid(np.tile(h, (n_sc, 1, 1)), coherence_block_id=0, flat=True)


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


def rice1_grid(seed: int, k_factor: float, n_tx: int, n_sc: int,
               block_id: int = 0) -> ChannelGrid:
    """One block of :func:`rice1_blocks`, frequency flat across ``n_sc``."""
    if n_sc < 1:
        raise ValueError(f"n_sc must be >= 1, got {n_sc}")
    h = rice1_blocks(seed, k_factor, n_tx, [block_id])[0]
    return ChannelGrid(np.tile(h, (n_sc, 1, 1)), coherence_block_id=block_id, flat=True)


def mean_rx_power(grid: ChannelGrid) -> float:
    """Mean received power per transmit antenna: grand mean of ``|h|^2``.

    Equals the mean over subcarriers and receive antennas of
    ``row_norm^2 / n_tx``.
    """
    return float(np.mean(np.abs(grid.matrices) ** 2))


def block_rx_power(h: np.ndarray, n_sc: int) -> np.ndarray:
    """:func:`mean_rx_power` of each flat block ``h[b]`` spread over ``n_sc``.

    The mean runs over the ``n_sc`` identical copies, not over one matrix:
    a mean of the 8 entries of one matrix differs in the last bits from
    the mean over the tiled grid, and the two must agree for a drop's
    noise levels not to depend on how its blocks were drawn.  Returns
    shape ``(n_blocks,)``.
    """
    shape = (n_sc,) + h.shape[1:]
    step = max(1, BATCH_ELEMS // (n_sc * h[0].size))
    out = np.empty(h.shape[0])
    for lo in range(0, h.shape[0], step):
        part = h[lo:lo + step, None]
        tiled = np.broadcast_to(part, part.shape[:1] + shape)
        out[lo:lo + step] = np.mean(np.abs(tiled) ** 2, axis=(1, 2, 3))
    return out


def snr_noise_variance(snr_db: float, p_rx):
    """Per-receive-antenna noise variance ``P_rx / 10^(snr/10)``.

    ``p_rx`` is a mean received power per transmit antenna, or an array of
    them; every one must be positive.
    """
    if np.any(np.asarray(p_rx) <= 0.0):
        raise ValueError("cannot set an SNR on a zero channel; use a direct variance")
    return p_rx / 10.0 ** (snr_db / 10.0)


def noise_variance(snr_db: float | None, grid: ChannelGrid) -> NoiseSpec:
    """Resolve a target SNR against a grid into a noise variance.

    ``snr_db=None`` means noise free.  Otherwise the per-receive-antenna
    noise variance is ``P_rx / 10^(snr/10)`` with ``P_rx`` the grid's mean
    received power per transmit antenna, so the stated SNR holds at each
    receive antenna for unit-power channels.
    """
    if snr_db is None:
        return NoiseSpec("noise_free", 0.0, None)
    return NoiseSpec("snr", snr_noise_variance(snr_db, mean_rx_power(grid)),
                     float(snr_db))


def _estimation_error(shape: tuple, est_error_var: float, seed: int,
                      block_id: int) -> np.ndarray:
    """CN(0, est_error_var) perturbation of one block, drawn from ``(seed, block_id)``."""
    rng = np.random.default_rng([_EST_STREAM, seed, block_id])
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise *= np.sqrt(est_error_var / 2.0)
    return noise


def estimate(grid: ChannelGrid, est_error_var: float, seed: int) -> ChannelGrid:
    """Channel estimate seen by the UE.

    Adds i.i.d. CN(0, est_error_var) perturbation to every entry, drawn
    deterministically from ``(seed, coherence_block_id)``.  A zero error
    variance returns the grid unchanged.  Perturbed grids lose the
    ``flat`` property.
    """
    if est_error_var < 0:
        raise ValueError(f"est_error_var must be >= 0, got {est_error_var}")
    if est_error_var == 0:
        return grid
    noise = _estimation_error(grid.matrices.shape, est_error_var, seed,
                              grid.coherence_block_id)
    return ChannelGrid(grid.matrices + noise,
                       coherence_block_id=grid.coherence_block_id, flat=False)


def estimate_blocks(h: np.ndarray, est_error_var: float, seed: int,
                    block_ids, n_sc: int) -> np.ndarray:
    """:func:`estimate` of each flat block ``h[i]`` with id ``block_ids[i]``.

    Returns the subcarriers that need evaluating, shape
    ``(n_blocks, n_eval, 2, n_tx)``: one per block when the error variance
    is zero (the estimate is the flat channel itself), else all ``n_sc``.
    """
    if est_error_var < 0:
        raise ValueError(f"est_error_var must be >= 0, got {est_error_var}")
    if est_error_var == 0:
        return h[:, None]
    shape = (n_sc,) + h.shape[1:]
    return np.stack([hb + _estimation_error(shape, est_error_var, seed, b)
                     for hb, b in zip(h, block_ids)])


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed derived from integer parts (e.g. run seed, drop)."""
    seq = np.random.SeedSequence(list(parts))
    return int(seq.generate_state(1, np.uint64)[0])
