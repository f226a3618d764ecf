"""gNB-side link adaptation, PHY abstraction, and the closed-loop drop.

The gNB follows each CSI report: its rank and precoder, and the MCS
and transport-block size its CQI maps to; the PHY abstraction collapses
the per-layer MMSE SINRs into one capped effective SINR and a logistic
block-error probability anchored 1 dB above the Shannon limit of the
scheme; a single-process stop-and-wait HARQ loop produces throughput
statistics.

A drop runs in three phases, so that sweeps can share the first two:
:func:`drop_channel` draws every coherence block of the drop (shared by
all sweep points), :func:`drop_csi` computes the reports and the
effective SINRs for one noise point (shared by all forced CQIs), and
:func:`run_harq` runs the slot loop for one sweep point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import block_rx_power, estimate_blocks
from .codebook import build_codebook_set
from .csi import CsiReport, block_layer_sinrs, blocks_per_search, make_reports
from .scenario import Scenario
from .tables import load_cqi_table, load_mcs_table

# 30 kHz subcarrier spacing -> 0.5 ms slots.
SLOT_DURATION_S = 0.5e-3
# Data resource elements per PRB per slot (12 subcarriers x 14 symbols
# minus fixed reference-signal/control overhead).
DATA_RE_PER_PRB = 156

_ACK_STREAM = 14


@lru_cache(maxsize=None)
def mcs_from_cqi(cqi: int) -> int:
    """Highest MCS whose spectral efficiency does not exceed the CQI's.

    CQI 0 is out of range and CQI 1-2 sit below the lowest MCS
    efficiency, so all three fall back to MCS 0.  The result is
    nondecreasing in CQI even though the MCS efficiencies themselves are
    not perfectly monotone.
    """
    table = load_cqi_table()
    if not 0 <= cqi < len(table):
        raise ValueError(f"cqi must be in [0, {len(table) - 1}], got {cqi}")
    eff = table[cqi].efficiency
    best = 0
    for entry in load_mcs_table():
        if entry.efficiency <= eff:
            best = entry.index
    return best


@lru_cache(maxsize=None)
def tbs(mcs: int, n_layers: int, n_prb: int) -> int:
    """Transport-block size in bits for one MCS table row.

    Computed in exact integer arithmetic:
    ``DATA_RE_PER_PRB * n_prb * n_layers * Qm * rate_x1024 // 1024``.
    """
    table = load_mcs_table()
    if not 0 <= mcs < len(table):
        raise ValueError(f"mcs must be in [0, {len(table) - 1}], got {mcs}")
    if n_layers not in (1, 2):
        raise ValueError(f"n_layers must be 1 or 2, got {n_layers}")
    if n_prb < 1:
        raise ValueError(f"n_prb must be >= 1, got {n_prb}")
    e = table[mcs]
    return (DATA_RE_PER_PRB * n_prb * n_layers
            * e.modulation_order * e.rate_x1024) // 1024


def effective_sinrs_db(mats: np.ndarray, w: np.ndarray, noise_var,
                       cap_db: float) -> np.ndarray:
    """Mean per-layer linear SINR over the band, in dB, ceilinged at ``cap_db``.

    One value per block: ``mats`` has shape ``(n_blocks, n_eval, 2, n_tx)``,
    ``w`` holds each block's precoder, all of one rank, with the ceiling
    ``cap_db`` of that rank, and ``noise_var`` one value per block.  The
    rank-dependent ceiling models the fixed receiver impairment that keeps
    high modulation orders from becoming error free even when the channel
    SNR grows without bound.
    """
    mean_lin = np.mean(block_layer_sinrs(mats, w, noise_var), axis=(1, 2))
    return np.array([-math.inf if m <= 0.0 else min(10.0 * math.log10(m), cap_db)
                     for m in mean_lin.tolist()])


def decode_threshold_db(mcs: int) -> float:
    """Mid-point of the logistic error curve: Shannon limit of the
    scheme's spectral efficiency plus a 1 dB implementation margin."""
    se = load_mcs_table()[mcs].efficiency
    return 10.0 * math.log10(2.0 ** se - 1.0) + 1.0


def bler(eff_sinr_db: float, mcs: int) -> float:
    """Logistic block-error probability ``1 / (1 + exp(2 (eff - th)))``.

    Decreasing in the effective SINR, 0.5 exactly at the threshold, and
    evaluated in the numerically stable branch so extreme SINRs saturate
    to 0/1 instead of overflowing.
    """
    x = 2.0 * (eff_sinr_db - decode_threshold_db(mcs))
    if x > 0:
        e = math.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(x))


@dataclass(frozen=True)
class ThroughputStats:
    """Per-drop accounting of one closed-loop run."""

    slots: int
    tb_attempts: int
    tb_acks: int
    delivered_bits: int
    goodput_bps: float
    mean_bler: float
    mean_mcs: float
    mean_ri: float
    mean_cqi: float

    @property
    def goodput_mbps(self) -> float:
        return self.goodput_bps / 1e6


@dataclass(frozen=True, eq=False)
class DropChannel:
    """What one drop fixes for all of its sweep points.

    ``h`` holds the true channel of each coherence block of drop ``seed``,
    shape ``(n_blocks, 2, n_tx)``, and ``p_rx`` its mean received power.
    A block carries a report at its first slot on the reporting grid, if
    it has one: ``report_block`` lists those blocks.  Per slot,
    ``slot_block`` and ``slot_report`` give the block and the report in
    force, and ``ack_draws`` the one uniform variate drawn against the
    block-error probability.

    A transport block keeps the grant of the report in force when it was
    first sent, for up to ``max_harq_tx`` attempts, so it can meet the
    blocks that follow.  The (report, block) pairs that can occur are
    numbered report by report: ``(k, b)`` is pair ``report_pair_base[k] + b``
    of ``pair_report`` and ``pair_block``.
    """

    seed: int
    h: np.ndarray
    p_rx: np.ndarray
    report_block: np.ndarray
    slot_block: list[int]
    slot_report: list[int]
    ack_draws: list[float]
    pair_report: np.ndarray
    pair_block: np.ndarray
    report_pair_base: list[int]


def drop_channel(scenario: Scenario, seed: int) -> DropChannel:
    """Draw the channel and the slot plan of drop ``seed``.

    Nothing here depends on the noise point or on a forced CQI.  Every
    random stream is keyed by ``(seed, block)`` or by ``seed`` alone, so
    a drop is the same whichever sweep point runs it.
    """
    n = scenario.n_slots
    slots = np.arange(n)
    coh = scenario.coherence_slots
    slot_block = slots // coh if coh is not None else np.zeros(n, dtype=np.intp)
    h = scenario.block_channels(seed, int(slot_block[-1]) + 1)

    on_grid = slots[slots % scenario.csi_period == 0]
    first = np.r_[True, slot_block[on_grid][1:] != slot_block[on_grid][:-1]]
    report_slot = on_grid[first]
    report_block = slot_block[report_slot]
    slot_report = np.searchsorted(report_slot, slots, side="right") - 1

    # A grant from report k is first sent at the latest in the slot before
    # the next report, and resent at most max_harq_tx - 1 slots later.
    last_sent = np.minimum(np.r_[report_slot[1:] - 1, n - 1] + scenario.max_harq_tx - 1,
                           n - 1)
    n_pairs = slot_block[last_sent] - report_block + 1
    first_pair = np.cumsum(n_pairs) - n_pairs
    pair_report = np.repeat(np.arange(report_slot.size), n_pairs)
    pair_block = np.arange(n_pairs.sum()) - (first_pair - report_block)[pair_report]

    return DropChannel(
        seed=seed,
        h=h,
        p_rx=block_rx_power(h, scenario.n_prb),
        report_block=report_block,
        slot_block=slot_block.tolist(),
        slot_report=slot_report.tolist(),
        ack_draws=np.random.default_rng([_ACK_STREAM, seed]).random(n).tolist(),
        pair_report=pair_report,
        pair_block=pair_block,
        report_pair_base=(first_pair - report_block).tolist(),
    )


@dataclass(frozen=True, eq=False)
class DropCsi:
    """CSI of one drop at one noise point.

    ``reports`` holds one report per reporting block of ``chan`` and
    ``pair_eff_db`` the effective SINR of each (report, block) pair: the
    report's precoder on the block's true channel and noise.
    """

    chan: DropChannel
    reports: list[CsiReport]
    pair_eff_db: list[float]


def drop_csi(scenario: Scenario, chan: DropChannel) -> DropCsi:
    """Reports and effective SINRs of ``chan`` at the scenario's noise point.

    The UE reports from its estimate, decoding sees the true channel.  A
    forced CQI changes neither, so one result serves every forced CQI.
    Estimates are drawn a few blocks at a time, which bounds memory when
    they span the whole band.
    """
    n_tx = scenario.n_tx
    codebooks = build_codebook_set(n_tx)
    noise_var = scenario.noise_var_for_power(chan.p_rx)
    n_eval = 1 if scenario.est_error_var == 0 else scenario.n_prb
    step = blocks_per_search(n_eval, codebooks)
    reports = []
    for lo in range(0, chan.report_block.size, step):
        blocks = chan.report_block[lo:lo + step]
        est = estimate_blocks(chan.h[blocks], scenario.est_error_var, chan.seed,
                              blocks.tolist(), scenario.n_prb)
        reports += make_reports(est, noise_var[blocks], scenario.csi, codebooks)
    precoders = [codebooks[(n_tx, rep.ri)].matrix(rep.pmi) for rep in reports]
    pair_rank = np.array([rep.ri for rep in reports])[chan.pair_report]
    eff = np.empty(chan.pair_report.size)
    for rank in (1, 2):
        rows = np.flatnonzero(pair_rank == rank)
        if rows.size == 0:
            continue
        blocks = chan.pair_block[rows]
        w = np.stack([precoders[k] for k in chan.pair_report[rows].tolist()])
        eff[rows] = effective_sinrs_db(chan.h[blocks][:, None], w, noise_var[blocks],
                                       float(scenario.sinr_cap_db[rank]))
    return DropCsi(chan=chan, reports=reports, pair_eff_db=eff.tolist())


def run_harq(scenario: Scenario, csi: DropCsi) -> ThroughputStats:
    """Stop-and-wait HARQ over one drop at one sweep point.

    Each slot carries one transport block: a new one on the rank and
    precoder of the report in force, with the MCS and size that its CQI
    (or ``scenario.csi.force_cqi`` when set) maps to, or the pending one,
    resent as first sent up to ``max_harq_tx`` attempts and then dropped.
    Exactly one uniform variate per slot is drawn against the
    block-error probability.
    """
    chan = csi.chan
    force_cqi, n_prb = scenario.csi.force_cqi, scenario.n_prb
    sent = []  # per report: what a transport block scheduled from it carries
    for rep, pair_base in zip(csi.reports, chan.report_pair_base):
        cqi = rep.cqi if force_cqi is None else force_cqi
        mcs = mcs_from_cqi(cqi)
        sent.append((mcs, rep.ri, cqi, tbs(mcs, rep.ri, n_prb), pair_base))
    p_err = [bler(eff, sent[k][0])
             for eff, k in zip(csi.pair_eff_db, chan.pair_report.tolist())]

    slot_report, max_tx = chan.slot_report, scenario.max_harq_tx
    tries = acks = delivered = sum_mcs = sum_ri = sum_cqi = 0
    for slot, (u, block) in enumerate(zip(chan.ack_draws, chan.slot_block)):
        if tries == 0:
            mcs, layers, cqi, bits, pair_base = sent[slot_report[slot]]
        tries += 1
        sum_mcs += mcs
        sum_ri += layers
        sum_cqi += cqi
        if u >= p_err[pair_base + block]:
            acks += 1
            delivered += bits
            tries = 0
        elif tries >= max_tx:
            tries = 0  # block dropped after the last allowed attempt

    n = scenario.n_slots
    goodput = delivered / n / SLOT_DURATION_S * scenario.dl_duty_factor
    return ThroughputStats(
        slots=n,
        tb_attempts=n,
        tb_acks=acks,
        delivered_bits=delivered,
        goodput_bps=goodput,
        mean_bler=(n - acks) / n,
        mean_mcs=sum_mcs / n,
        mean_ri=sum_ri / n,
        mean_cqi=sum_cqi / n,
    )
