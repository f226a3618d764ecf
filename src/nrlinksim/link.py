"""gNB-side link adaptation, PHY abstraction, and the closed-loop drop.

The gNB follows each CSI report: its rank and precoder, and the MCS
and transport-block size its CQI maps to; the PHY abstraction collapses
the per-layer MMSE SINRs into one capped effective SINR and a logistic
block-error probability anchored 1 dB above the Shannon limit of the
scheme; single-process stop-and-wait HARQ produces throughput
statistics.

A drop runs in three phases, so that sweeps can share the first two:
:func:`drop_channel` draws every coherence block of the drop (shared by
all sweep points), :func:`drop_csi` computes the reports and, in one
array call or a few per rank, the effective SINRs at every noise point
(shared by all forced CQIs), and :func:`run_harq` runs HARQ for every
sweep point of the drop, against the drop's :func:`ack_draws`, in
whole-array rounds: each slot is decided under its own report, then
redecided where the ACKs show its block follows an older one, until no
decision changes.  The one exception is a drop with one (report, block)
pair, as every fixed channel's: it has one error probability per point,
so each point's slots are decided against that one value at once.

When ``Scenario.drop_invariant_csi`` holds, only a drop's ACK draws
depend on its seed, so its drops can share one read-only :class:`DropCsi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import block_rx_power, estimate_blocks, estimate_streams
from .codebook import PrecoderCodebook, build_codebook
from .csi import CsiReports, Scratch, chunks, layer_powers, make_reports
from .scenario import Scenario
from .tables import N_CQI, N_MCS, load_cqi_table, load_mcs_table

# 30 kHz subcarrier spacing -> 0.5 ms slots.
SLOT_DURATION_S = 0.5e-3
# Data resource elements per PRB per slot (12 subcarriers x 14 symbols
# minus fixed reference-signal/control overhead).
DATA_RE_PER_PRB = 156

_ACK_STREAM = 14


def ack_draws(seed: int, n_slots: int) -> np.ndarray:
    """The one uniform variate per slot that drop ``seed`` draws against the
    block-error probability, from its own stream keyed by ``seed`` alone."""
    return np.random.default_rng([_ACK_STREAM, seed]).random(n_slots)


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
    return max((e.index for e in load_mcs_table() if e.efficiency <= eff), default=0)


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


def effective_sinrs_db(mats: np.ndarray, cb: PrecoderCodebook, pmi: np.ndarray, noise_var,
                       cap_db: float) -> np.ndarray:
    """Mean per-layer linear SINR over the band, in dB, ceilinged at ``cap_db``.

    One value per block: ``mats`` has shape ``(n_blocks, n_eval, 2, n_tx)``;
    block ``b`` is sent on ``cb.precoders[pmi[..., b]]``, ``cb`` being the
    codebook of the rank whose ceiling is ``cap_db``; ``pmi``,
    ``noise_var`` and the result have shape ``(..., n_blocks)``.  A
    layer's SINR is its signal over its interference+noise from
    :func:`csi.layer_powers`, the PMI search's kernel, and 0 where that
    denominator is 0.  The rank-dependent ceiling models the fixed receiver
    impairment that keeps high modulation orders from becoming error free
    even when the channel SNR grows without bound.
    """
    p, s, t = layer_powers(mats, cb, noise_var, Scratch(), pmi)
    signal, noise_interf = p * s, s * t
    lin = np.divide(signal, noise_interf, out=np.zeros_like(signal), where=noise_interf > 0.0)
    mean_lin = np.mean(lin, axis=(-3, -2, -1))
    return np.array([-math.inf if m <= 0.0 else min(10.0 * math.log10(m), cap_db)
                     for m in mean_lin.ravel().tolist()]).reshape(mean_lin.shape)


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


class ThroughputStats(NamedTuple):
    """Per-drop accounting of one closed-loop run.

    ``tb_dropped`` counts the transport blocks given up after
    ``max_harq_tx`` NACKs; one still pending when the drop ends is not
    dropped.  As a named tuple, it equals the plain tuple of its values.
    """

    slots: int
    tb_attempts: int
    tb_acks: int
    tb_dropped: int
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
    it has one: ``report_block`` lists those blocks.  Per slot, ``slot_block``
    and ``slot_report`` give the block and the report in force.

    A transport block keeps the grant of the report in force when it was
    first sent, for up to ``max_harq_tx`` attempts, so it can meet the
    blocks that follow.  The (report, block) pairs that can occur are
    numbered report by report: ``(k, b)`` is pair ``report_pair_base[k] + b``
    of ``pair_report`` and ``pair_block``.  Every field but ``seed`` is an
    array.
    """

    seed: int
    h: np.ndarray
    p_rx: np.ndarray
    report_block: np.ndarray
    slot_block: np.ndarray
    slot_report: np.ndarray
    pair_report: np.ndarray
    pair_block: np.ndarray
    report_pair_base: np.ndarray


def drop_channel(scenario: Scenario, seed: int) -> DropChannel:
    """Draw the channel and the slot plan of drop ``seed``.

    Nothing here depends on the noise point or on a forced CQI.  Every
    random stream is keyed by ``(seed, block)`` or by ``seed`` alone, so
    a drop is the same whichever sweep point runs it.
    """
    n = scenario.n_slots
    slots = np.arange(n)
    slot_block = slots // scenario.coherence_slots
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
        p_rx=block_rx_power(h),
        report_block=report_block,
        slot_block=slot_block,
        slot_report=slot_report,
        pair_report=pair_report,
        pair_block=pair_block,
        report_pair_base=first_pair - report_block,
    )


@dataclass(frozen=True, eq=False)
class DropCsi:
    """CSI of one drop at every noise point.

    ``reports`` holds one report per reporting block of ``chan``: ``ri``
    has one entry per block, the other columns shape
    ``(n_points, n_blocks)``.  ``pair_eff_db``, shape
    ``(n_points, n_pairs)``, holds the effective SINR of each
    (report, block) pair: the report's precoder on the block's true
    channel and noise.  A forced-CQI sweep passes its CQIs to
    :func:`run_harq`, which broadcasts them against ``pair_eff_db`` in place
    of ``reports.cqi``.
    """

    chan: DropChannel
    reports: CsiReports
    pair_eff_db: np.ndarray


def drop_csi(scenario: Scenario, chan: DropChannel) -> DropCsi:
    """Reports and effective SINRs of ``chan`` at every noise point.

    The UE reports from its estimate, decoding sees the true channel.  The
    estimate, RI and the candidates' effective channels do not depend on
    the noise, so one pass serves every noise point, and every forced CQI.
    To bound memory, reporting blocks go in estimate chunks
    (:func:`csi.chunks`), as many as keep the estimation-error normals,
    ``(blocks, 2, n_eval, 2, n_tx)`` floats, within ``csi.BATCH_ELEMS``;
    each chunk is one :func:`make_reports` call.  Pair SINRs go in chunks
    of pairs too.  The estimates' streams are derived once per drop.
    """
    n_tx = scenario.n_tx
    noise_vars = scenario.noise_vars(chan.p_rx)
    n_eval = 1 if scenario.est_error_var == 0 else scenario.n_prb
    streams = (estimate_streams(chan.seed, chan.report_block)
               if scenario.est_error_var else None)
    parts, scratch = [], Scratch()
    for part in chunks(chan.report_block.size, 4 * n_eval * n_tx):
        blocks = chan.report_block[part]
        est = estimate_blocks(chan.h[blocks], scenario.est_error_var,
                              None if streams is None else streams[part], scenario.n_prb)
        parts.append(make_reports(est, noise_vars[:, blocks], scenario.csi, scratch))
        del est  # free it before the next chunk's normals
    reports = CsiReports(*(np.concatenate(col, axis=-1) for col in zip(*parts)))
    del scratch  # free the searches' temporaries before the pairs make theirs
    pair_rank = reports.ri[chan.pair_report]
    eff = np.empty((len(noise_vars), chan.pair_report.size))
    for rank in np.flatnonzero(np.bincount(pair_rank)).tolist():  # the ranks present
        cb = build_codebook(n_tx, rank)
        pairs = np.flatnonzero(pair_rank == rank)
        # Each pair's effective channels under every candidate, and under its
        # reported one at every noise point.
        for part in chunks(pairs.size, 2 * rank * max(len(cb.precoders), len(noise_vars))):
            rows = pairs[part]
            blocks = chan.pair_block[rows]
            eff[:, rows] = effective_sinrs_db(
                chan.h[blocks][:, None], cb, reports.pmi[:, chan.pair_report[rows]],
                noise_vars[:, blocks], float(scenario.sinr_cap_db[rank]))
    return DropCsi(chan=chan, reports=reports, pair_eff_db=eff)


@lru_cache(maxsize=None)
def _lookup(n_prb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The MCS of each CQI, at ``[cqi, layers - 1]`` its transport-block
    bits, and :func:`decode_threshold_db` of each MCS."""
    mcs = [mcs_from_cqi(c) for c in range(N_CQI)]
    return (np.array(mcs), np.array([[tbs(m, 1, n_prb), tbs(m, 2, n_prb)] for m in mcs]),
            np.array([decode_threshold_db(m) for m in range(N_MCS)]))


# An ACK decision ``u >= p_err`` whose draw ``u`` lies this close to the
# vectorized ``p_err`` is redone with the scalar :func:`bler`.  ``np.exp``
# and ``math.exp`` differ by an ulp or so, far inside this margin, so every
# decision equals the scalar one.
ACK_REDO_TOL = 1e-12


def _acks(u: np.ndarray, at: tuple, p_err: np.ndarray, eff: np.ndarray,
          mcs: np.ndarray) -> np.ndarray:
    """``u >= bler(eff, mcs)`` at the (point, pair) entries ``at``, against the draws ``u``.

    ``p_err``, ``eff`` and ``mcs`` hold one row per point and one entry per
    pair; ``at`` indexes them, and ``u`` broadcasts with the result.
    """
    gap = p_err[at]
    acked = u >= gap
    gap -= u
    near = np.abs(gap, out=gap) <= ACK_REDO_TOL
    if near.any():
        acked[near] = [v >= bler(x, m) for v, x, m in zip(
            np.broadcast_to(u, near.shape)[near].tolist(), eff[at][near].tolist(),
            mcs[at][near].tolist())]
    return acked


def _first_sent(acked: np.ndarray, max_tx: int) -> np.ndarray:
    """Slot ``t - a_t`` in which each slot's transport block was first sent.

    With ``r`` the last slot before ``t`` whose block was ACKed in the
    same row of ``acked``, slot ``t`` makes attempt
    ``a_t = (t - r - 1) mod max_tx``.
    """
    slots = np.arange(acked.shape[1])
    first = np.zeros(acked.shape, dtype=np.intp)
    np.multiply(acked[:, :-1], slots[1:], out=first[:, 1:])
    np.maximum.accumulate(first, axis=1, out=first)
    np.subtract(slots, first, out=first)
    # Only NACK runs of max_tx or more reach an attempt count that needs it.
    np.remainder(first, max_tx, out=first, where=first >= max_tx)
    return np.subtract(slots, first, out=first)


def _ack_runs(acked: np.ndarray, max_tx: int) -> tuple[np.ndarray, np.ndarray]:
    """ACKs and transport blocks given up in each row of ``acked``.

    A run of ``L`` NACKs after an ACK, or after the drop's start, gives up
    ``L // max_tx`` blocks; the rest of the run belongs to the block that
    ends it or, at the drop's end, to one cut off, not dropped.  The runs
    start and end where the NACK rows, laid end to end with a sentinel ACK
    before each row and after the last, change value, so that no run
    crosses a row.
    """
    n_rows, n = acked.shape
    nacked = np.zeros(n_rows * (n + 1) + 1, dtype=bool)
    np.logical_not(acked, out=nacked[:-1].reshape(n_rows, n + 1)[:, 1:])
    edges = np.flatnonzero(nacked[1:] != nacked[:-1])
    starts, runs = edges[0::2], edges[1::2] - edges[0::2]
    row = starts // (n + 1)
    n_nacks = np.bincount(row, weights=runs, minlength=n_rows)
    runs //= max_tx
    dropped = np.bincount(row, weights=runs, minlength=n_rows)
    return n - n_nacks.astype(np.intp), dropped.astype(np.intp)


def _point_stats(scenario: Scenario, acked: np.ndarray, carried: np.ndarray | None,
                 ri: np.ndarray, cqi: np.ndarray) -> list[ThroughputStats]:
    """Statistics of each point from its per-slot ACKs, ``acked``, and the
    reports its slots' blocks follow, ``carried``, one row per point, or
    ``None`` for a one-pair drop; ``cqi`` holds its reports' CQIs."""
    n = scenario.n_slots
    n_acks, dropped = _ack_runs(acked, scenario.max_harq_tx)
    if carried is None:
        acks, sent = n_acks[:, None], np.full((len(acked), 1), n)
    else:
        # Slots and ACKs per (point, report followed), counted over flat indices.
        n_points, n_reports = cqi.shape
        carried += n_reports * np.arange(n_points)[:, None]
        sent, acks = (np.bincount(c, minlength=cqi.size).reshape(cqi.shape)
                      for c in (carried.ravel(), carried[acked]))
    mcs_of_cqi, bits_of_cqi, _ = _lookup(scenario.n_prb)
    columns = (n_acks, dropped, (acks * bits_of_cqi[cqi, ri - 1]).sum(axis=1),
               (sent * mcs_of_cqi[cqi]).sum(axis=1), sent @ ri, (sent * cqi).sum(axis=1))
    return [ThroughputStats(
        slots=n,
        tb_attempts=n,
        tb_acks=n_acks,
        tb_dropped=n_dropped,
        delivered_bits=bits,
        goodput_bps=bits / n / SLOT_DURATION_S * scenario.dl_duty_factor,
        mean_bler=(n - n_acks) / n,
        mean_mcs=sum_mcs / n,
        mean_ri=sum_ri / n,
        mean_cqi=sum_cqi / n,
    ) for n_acks, n_dropped, bits, sum_mcs, sum_ri, sum_cqi
        in zip(*(c.tolist() for c in columns))]


def _redo_rounds(chan: DropChannel, acked: np.ndarray, u: np.ndarray, p_err: np.ndarray,
                 eff: np.ndarray, mcs: np.ndarray, max_tx: int) -> np.ndarray:
    """Redecide, in rounds, the slots of ``acked`` whose block follows an
    older report than their own, in place; return the report each slot's
    block follows.  ``u`` holds one draw per slot; ``p_err``, ``eff`` and
    ``mcs`` are as for :func:`_acks`."""
    first = _first_sent(acked, max_tx)
    carried = chan.slot_report[first]
    moved = carried != chan.slot_report
    live = np.arange(len(acked))
    while moved.any():
        row, slot = np.nonzero(moved)
        point = live[row]
        pair = chan.report_pair_base[carried[point, slot]] + chan.slot_block[slot]
        acked[point, slot] = _acks(u[slot], (point, pair), p_err, eff, mcs)
        live = live[moved.any(axis=1)]
        now = chan.slot_report[_first_sent(acked[live], max_tx)]
        moved = now != carried[live]
        carried[live] = now
    return carried


def run_harq(scenario: Scenario, csi: DropCsi, u: np.ndarray,
             cqi: np.ndarray | None = None) -> list[ThroughputStats]:
    """Stop-and-wait HARQ over one drop, one result per sweep point of ``csi``.

    Each slot carries one transport block: a new one on the rank and
    precoder of the report in force, with the MCS and size that its CQI
    maps to, or the pending one, resent as first sent up to
    ``max_harq_tx`` attempts and then dropped.  ``u``, the drop's
    :func:`ack_draws`, holds the one uniform variate per slot drawn against
    the block-error probability.  ``cqi``, if given, stands for
    ``csi.reports.cqi``; ``sweep-cqi`` passes ``np.arange(N_CQI)[:, None]``.

    No loop runs over the slots.  Every slot is first decided under its
    own report.  Then, in rounds, the ACKs give each slot's first-send
    slot (:func:`_first_sent`) and with it the report its block follows;
    the slots whose report changed are decided again, and the next round
    runs on the points that changed.  The rounds are exact and they end:
    a slot's first-send slot depends only on the ACKs before it, so the
    earliest wrong decision of a point follows the right report and is
    fixed in the next round, and a round that changes nothing leaves
    every slot following the report the slot-by-slot recurrence gives.
    The one shortcut is a drop with one (report, block) pair, such as a
    fixed channel's: it has one error probability per point, so the
    point's scalar :func:`bler` decides all of its slots in one compare,
    with no gather over the slots, no near-tie to redo and no round.
    """
    chan = csi.chan
    ri, eff = csi.reports.ri, csi.pair_eff_db
    cqi = csi.reports.cqi if cqi is None else cqi
    n_points, n_pairs = max(len(cqi), len(eff)), chan.pair_report.size
    cqi = np.broadcast_to(cqi, (n_points, ri.size))
    eff = np.broadcast_to(eff, (n_points, n_pairs))
    mcs_of_cqi, _, threshold_db = _lookup(scenario.n_prb)
    own_pair = None if n_pairs == 1 else chan.report_pair_base[chan.slot_report] + chan.slot_block
    out = []
    # Sweep points in chunks of (point, slot) arrays: a long drop gets one per pass.
    for part in chunks(n_points, scenario.n_slots):
        point_cqi, point_eff = cqi[part], eff[part]
        pair_mcs = mcs_of_cqi[point_cqi][:, chan.pair_report]
        if own_pair is None:
            # One error probability per point: its scalar bler decides every slot.
            p_err = [bler(x, m) for x, m in zip(point_eff.ravel().tolist(),
                                                pair_mcs.ravel().tolist())]
            acked, carried = u >= np.array(p_err)[:, None], None
        else:
            # bler over arrays; _acks redoes near-ties with the scalar bler.
            x = 2.0 * (point_eff - threshold_db[pair_mcs])
            e = np.exp(-np.abs(x))
            p_err = np.where(x > 0, e / (1.0 + e), 1.0 / (1.0 + e))
            acked = _acks(u, np.s_[:, own_pair], p_err, point_eff, pair_mcs)
            carried = _redo_rounds(chan, acked, u, p_err, point_eff, pair_mcs,
                                   scenario.max_harq_tx)
        out += _point_stats(scenario, acked, carried, ri, point_cqi)
    return out
