"""Shared fixtures and oracles.

Each golden sweep is executed once per session and handed out as
``(rows, elapsed_seconds)`` so the acceptance tests can assert both the
curve shape and the measured wall-clock cost while other tests reuse the
same results for free.  The oracles restate, one value at a time, what
the engine computes by table lookup over whole arrays.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from nrlinksim.channel import _EST_STREAM, _LOS_STREAM, _NLOS_STREAM
from nrlinksim.codebook import build_codebook_set
from nrlinksim.csi import (_CQI_FROM_SINR_RANK1, _CQI_FROM_SINR_RANK2, DB_CEIL, DB_FLOOR,
                           DET_EPS, NOISE_FREE_LAYER_SINR, PMI_TIE_REL_TOL, CsiReports)
from nrlinksim.link import (DropChannel, ThroughputStats, ack_draws, drop_channel, drop_csi,
                            run_harq)
from nrlinksim.scenario import NoiseModel, Scenario, parse_scenario
from nrlinksim.sweeps import run_sweep_cqi, run_sweep_snr

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

# Reference channels used across the suite (the first two are also encoded
# in the golden scenario files), and a 2x4 one with orthogonal rows.
H_2X4_REF = [[1.0, 0.5, 0.25, 0.125], [0.125, 0.25, 0.5, 1.0]]
H_2X2_REF = [[1.0, 0.5], [0.5, 1.0]]
H_ORTHO = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]

# The condition metric of H_2X4_REF; 16498/6201 in exact arithmetic.
GAMMA_2X4_REF = 2.6605386228027736

# Precoders in each Type I codebook, keyed by (ports, rank).
EXPECTED_SIZES = {(4, 1): 32, (4, 2): 32, (2, 1): 4, (2, 2): 2}


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / name


def drop_stats(scenario: Scenario, seed: int) -> list[ThroughputStats]:
    """Drop ``seed`` at every sweep point of the scenario: the three engine
    phases run back to back, on the drop's own ACK draws."""
    return run_harq(scenario, drop_csi(scenario, drop_channel(scenario, seed)),
                    ack_draws(seed, scenario.n_slots))


def simulate_drop(scenario: Scenario, seed: int) -> ThroughputStats:
    """One closed-loop drop at the scenario's own noise point and CQI setting."""
    [stats] = drop_stats(scenario, seed)
    return stats


def at_snr(scenario: Scenario, snr_db: float) -> Scenario:
    """The scenario at one SNR point of its sweep, as a scenario of its own."""
    return replace(scenario, noise=NoiseModel(mode="snr", snr_db=snr_db))


def with_forced_cqi(scenario: Scenario, cqi: int) -> Scenario:
    """The scenario at one point of a forced-CQI sweep, as a scenario of its own."""
    return replace(scenario, csi=replace(scenario.csi, force_cqi=cqi))


def rice1_blocks_oracle(seed: int, k_factor: float, n_tx: int, block_ids) -> np.ndarray:
    """Bitwise oracle of ``channel.rice1_blocks``: one generator per block,
    ``default_rng([_NLOS_STREAM, seed, block])``."""
    theta = np.random.default_rng([_LOS_STREAM, seed]).uniform(0.0, 2.0 * np.pi)
    los = np.full((2, n_tx), np.exp(1j * theta), dtype=np.complex128)
    scat = np.empty((len(block_ids), 2, n_tx), dtype=np.complex128)
    for i, block_id in enumerate(block_ids):
        rng = np.random.default_rng([_NLOS_STREAM, seed, block_id])
        scat[i] = rng.standard_normal((2, n_tx)) + 1j * rng.standard_normal((2, n_tx))
    scat /= np.sqrt(2.0)
    return np.sqrt(k_factor / (k_factor + 1.0)) * los + np.sqrt(1.0 / (k_factor + 1.0)) * scat


def estimate_blocks_oracle(h: np.ndarray, est_error_var: float, seed: int,
                           block_ids, n_sc: int) -> np.ndarray:
    """Bitwise oracle of ``channel.estimate_blocks`` with ``estimate_streams(seed,
    block_ids)``: one generator per block, ``default_rng([_EST_STREAM, seed, block])``."""
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


class GramMetric(NamedTuple):
    """Condition metric of each channel's receive Gram, with the Gram's
    determinant and trace it comes from."""

    gamma: np.ndarray
    det: np.ndarray
    tr: np.ndarray


def gram_metric_oracle(mats: np.ndarray) -> GramMetric:
    """Oracle of ``csi.gamma_stack`` from the Gram matrix itself: ``M = H
    @ H^H`` by one ``matmul``, then ``sum |m_ij|^2 / det(M)``, ``+inf`` where
    ``det(M) <= DET_EPS * trace(M)^2``.  Rounds apart from ``gamma_stack``'s
    elementwise form in the last bits."""
    g = mats @ np.conj(np.swapaxes(mats, -1, -2))
    num = np.sum(np.abs(g) ** 2, axis=(-2, -1))
    tr = (g[..., 0, 0] + g[..., 1, 1]).real
    det = (g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]).real
    gamma = np.full(mats.shape[:-2], np.inf)
    np.divide(num, det, out=gamma, where=det > DET_EPS * tr * tr)
    return GramMetric(gamma, det, tr)


def scalar_lin_to_int_db(x: float) -> int:
    """Oracle of ``csi.lin_to_int_db`` for one ratio:
    ``round(10 log10 x)`` clamped to ``[DB_FLOOR, DB_CEIL]``."""
    if x < 0:
        raise ValueError(f"power ratio must be nonnegative, got {x}")
    if x == 0:
        return DB_FLOOR
    if math.isinf(x):
        return DB_CEIL
    return int(min(max(round(10.0 * math.log10(x)), DB_FLOOR), DB_CEIL))


def select_cqi(wideband_sinr_db: int, ri: int) -> int:
    """Oracle of ``csi.CQI_FROM_SINR``: CQI from the integer wideband SINR,
    per reporting rank.

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


def precoder_for(key, rank: int, ports: int) -> np.ndarray:
    """Oracle of one row of ``PrecoderCodebook.precoders``: the Type I
    precoder of index ``key = (i11, i12, i13, i2)``, shape ``(ports, rank)``."""
    i11, _, i13, i2 = key
    phi = 1j ** i2
    if ports == 2:
        if rank == 1:
            return np.array([[1.0], [phi]], dtype=np.complex128) / math.sqrt(2.0)
        return np.array([[1.0, 1.0], [phi, -phi]], dtype=np.complex128) / 2.0

    def beam(l):
        return np.array([1.0, np.exp(1j * np.pi * l / 4.0)], dtype=np.complex128)

    v = beam(i11)
    if rank == 1:
        return np.concatenate([v, phi * v]).reshape(4, 1) / 2.0
    vp = beam(i11 + 4 * i13)
    top = np.stack([v, vp], axis=1)
    bot = np.stack([phi * v, -phi * vp], axis=1)
    return np.vstack([top, bot]) / math.sqrt(8.0)


class LayerPowers(NamedTuple):
    """Per-layer MMSE signal and interference+noise power."""

    signal: np.ndarray
    noise_interf: np.ndarray


def split_oracle(g: np.ndarray, noise_var) -> LayerPowers:
    """Bitwise oracle of the engine's per-layer MMSE split: both fields in
    one pass, ``|g|^2`` as ``re^2 + im^2``, column norms as the sum of the
    two receive rows' powers, no array updated in place.  ``g`` holds
    receive-row planes, shape ``(2, ..., n_layers, n_cand)``, and
    ``noise_var`` broadcasts against ``g.shape[1:]`` with a layer axis of 1."""
    noise_var = np.asarray(noise_var, dtype=np.float64)
    power = g.real ** 2 + g.imag ** 2
    norms = power[0] + power[1]
    if not np.all(noise_var):
        signal = np.where(norms > noise_var, NOISE_FREE_LAYER_SINR, 0.0)
        free = LayerPowers(signal, np.ones_like(signal))
        if not np.any(noise_var):
            return free
        noisy = split_oracle(g, np.where(noise_var > 0.0, noise_var, 1.0))
        return LayerPowers(*(np.where(noise_var > 0.0, a, b) for a, b in zip(noisy, free)))
    if g.shape[-2] == 2:
        det = g[0, ..., :1, :] * g[1, ..., 1:, :] - g[1, ..., :1, :] * g[0, ..., 1:, :]
        x = (det.real ** 2 + det.imag ** 2) / noise_var + norms
        y = norms[..., ::-1, :] + noise_var
    else:
        x, y = norms, noise_var
    d = x + y
    s, t = x / d, y / d
    return LayerPowers(s * s, s * t)


def block_planes_oracle(mats: np.ndarray, cb) -> list[np.ndarray]:
    """Every candidate's effective channels, block by block: the block's
    rows, receive row first, times the whole codebook laid out as
    ``(ports, rank * n_cand)``, layer by layer, in one 2-D matmul, as
    planes ``(2, n_eval, rank, n_cand)``."""
    whole = np.concatenate([cb.precoders[:, :, l].T for l in range(cb.rank)], axis=1)
    return [(np.concatenate([block[:, 0], block[:, 1]]) @ whole)
            .reshape(2, len(block), cb.rank, len(cb.precoders)) for block in mats]


def select_pmi_oracle(mats: np.ndarray, noise_var, cb) -> tuple[np.ndarray, np.ndarray]:
    """Bitwise oracle of ``csi.select_pmi_blocks``: every candidate's
    effective channels from one matmul per block (:func:`block_planes_oracle`),
    then :func:`split_oracle` and the sums over subcarriers and layers,
    block by block."""
    noise_var = np.asarray(noise_var, dtype=np.float64)
    sums = [[powers.sum(axis=(-3, -2))
             for powers in split_oracle(g, noise_var[..., b, None, None, None])]
            for b, g in enumerate(block_planes_oracle(mats, cb))]
    sig, nin = (np.stack([block[k] for block in sums], axis=-2) for k in (0, 1))
    ratios = np.divide(sig, nin, out=np.zeros_like(sig), where=nin > 0.0)
    best = np.max(ratios, axis=-1, keepdims=True)
    winners = np.argmax(ratios >= best - PMI_TIE_REL_TOL * np.abs(best), axis=-1)
    return winners, np.take_along_axis(ratios, winners[..., None], axis=-1)[..., 0]


def report_oracle(mats: np.ndarray, noise_var: float, cfg, codebooks) -> tuple[int, int, int]:
    """Oracle of ``csi.make_reports`` for one block: its ``(ri, pmi, cqi)``.

    ``mats`` holds the block's evaluated subcarriers, shape ``(n_eval, 2,
    n_tx)``.  Each subcarrier votes by :func:`gram_metric_oracle`, the PMI
    comes from :func:`select_pmi_oracle`, and the CQI from
    :func:`scalar_lin_to_int_db` and :func:`select_cqi`; ``force_ri`` and
    ``force_cqi`` of ``cfg`` override.  The Gram form votes as
    ``gamma_stack`` does except within about 2^-44 (relative) of the vote's
    edges, which no random draw reaches."""
    if cfg.force_ri is not None:
        ri = cfg.force_ri
    else:
        votes2 = np.count_nonzero(gram_metric_oracle(mats).gamma < cfg.gamma_th)
        ri = 2 if 2 * votes2 > len(mats) else 1
    pmi, ratio = select_pmi_oracle(mats[None], np.array([noise_var]),
                                   codebooks[(mats.shape[-1], ri)])
    cqi = (select_cqi(scalar_lin_to_int_db(float(ratio[0])), ri) if cfg.force_cqi is None
           else cfg.force_cqi)
    return ri, int(pmi[0]), cqi


def pair_layer_sinrs_oracle(mats: np.ndarray, cb, pmi, noise_var) -> np.ndarray:
    """Bitwise oracle of the per-layer SINRs ``link.effective_sinrs_db``
    averages, at one noise point: block ``b``'s effective channels under
    ``cb.precoders[pmi[b]]``, taken from its product with the whole
    codebook (:func:`block_planes_oracle`), then :func:`split_oracle`'s
    signal over its interference+noise, 0 where that is 0.  Shape
    ``(n_blocks, n_eval, n_layers)``."""
    g = np.stack([planes[..., [k]] for planes, k in zip(block_planes_oracle(mats, cb), pmi)],
                 axis=1)
    split = split_oracle(g, np.asarray(noise_var)[:, None, None, None])
    return np.divide(split.signal, split.noise_interf, out=np.zeros_like(split.signal),
                     where=split.noise_interf > 0.0)[..., 0]


def eff_sinrs_db_oracle(mats: np.ndarray, cb, pmi, noise_var, cap_db: float) -> np.ndarray:
    """Bitwise oracle of ``link.effective_sinrs_db`` at one noise point: each
    block's mean layer SINR (:func:`pair_layer_sinrs_oracle`), then
    ``math.log10`` and ``min`` value by value, -inf where the mean is not
    positive."""
    mean = pair_layer_sinrs_oracle(mats, cb, pmi, noise_var).mean(axis=(-2, -1))
    return np.array([-math.inf if m <= 0.0 else min(10.0 * math.log10(m), cap_db)
                     for m in mean.tolist()])


def pair_eff_db_oracle(scenario: Scenario, chan: DropChannel, reports: CsiReports) -> np.ndarray:
    """Bitwise oracle of ``DropCsi.pair_eff_db``: one :func:`eff_sinrs_db_oracle`
    per (noise point, rank), each on that point's noise alone."""
    codebooks = build_codebook_set(scenario.n_tx)
    noise_vars = scenario.noise_vars(chan.p_rx)
    pair_rank = reports.ri[chan.pair_report]
    eff = np.empty((len(noise_vars), chan.pair_report.size))
    for point, noise_var in enumerate(noise_vars):
        for rank in np.unique(pair_rank).tolist():
            rows = np.flatnonzero(pair_rank == rank)
            blocks = chan.pair_block[rows]
            pmi = reports.pmi[point, chan.pair_report[rows]]
            eff[point, rows] = eff_sinrs_db_oracle(
                chan.h[blocks][:, None], codebooks[(scenario.n_tx, rank)], pmi,
                noise_var[blocks], float(scenario.sinr_cap_db[rank]))
    return eff


def _timed_cqi(name: str):
    scenario = parse_scenario(scenario_path(name))
    t0 = time.perf_counter()
    rows = run_sweep_cqi(scenario)
    return rows, time.perf_counter() - t0


def _timed_snr(name: str):
    scenario = parse_scenario(scenario_path(name))
    t0 = time.perf_counter()
    rows = run_sweep_snr(scenario)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cqi_fixed_2x4():
    """Forced-CQI sweep, fixed 2x4 channel, rank forced to 2, noise free."""
    return _timed_cqi("cqi_sweep_fixed_2x4.json")


@pytest.fixture(scope="session")
def cqi_rice_2x4():
    """Forced-CQI sweep, Rician 2x4 fading, closed-loop rank, noise free."""
    return _timed_cqi("cqi_sweep_rice1_2x4.json")


@pytest.fixture(scope="session")
def snr_rice_2x4():
    """Closed-loop SNR sweep, Rician 2x4 fading."""
    return _timed_snr("snr_sweep_rice1_2x4.json")


@pytest.fixture(scope="session")
def snr_rice_2x2():
    """Closed-loop SNR sweep, Rician 2x2 fading (same seed as the 2x4 run)."""
    return _timed_snr("snr_sweep_rice1_2x2.json")


@pytest.fixture(scope="session")
def snr_fixed_2x4():
    """Closed-loop SNR sweep on the fixed 2x4 matrix (rank forced to 2)."""
    return _timed_snr("snr_sweep_fixed_2x4.json")


@pytest.fixture(scope="session")
def snr_fixed_2x2():
    """Closed-loop SNR sweep on the fixed 2x2 matrix."""
    return _timed_snr("snr_sweep_fixed_2x2.json")
