"""Experiment drivers: forced-CQI sweeps, SNR sweeps, CSI inspection.

Each driver returns plain result rows (which tests consume directly) and
has a matching CSV writer with a fixed column contract.  Results are
bitwise reproducible for a given scenario: drop seeds derive only from
``(scenario.seed, drop_index)``, never from the sweep point, so sweep
points share common random numbers.  Sweeps therefore run drop-major:
each drop is drawn once and serves every sweep point.  When the CSI
cannot depend on the drop (``Scenario.drop_invariant_csi``: a fixed
channel estimated without error), it is computed once per sweep, and
each drop makes only its own ACK draws and HARQ pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import TextIO

import numpy as np

from .channel import derive_seed, estimate_blocks, estimate_streams
from .codebook import build_codebook
from .csi import gamma_stack, make_reports
from .link import (DropCsi, ThroughputStats, ack_draws, drop_channel, drop_csi, mcs_from_cqi,
                   run_harq)
from .scenario import Scenario, ScenarioError
from .tables import N_CQI


@dataclass(frozen=True)
class CqiSweepRow:
    """Aggregate of one forced-CQI point over all drops."""

    cqi: int
    mcs: int
    goodput_mbps_mean: float
    goodput_mbps_std: float
    mean_bler: float
    drops: tuple[ThroughputStats, ...]


@dataclass(frozen=True)
class SnrSweepRow:
    """Aggregate of one SNR point over all drops."""

    snr_db: float
    mean_ri: float
    mean_cqi: float
    mean_mcs: float
    mean_bler: float
    goodput_mbps: float
    goodput_mbps_std: float
    drops: tuple[ThroughputStats, ...]


@dataclass(frozen=True)
class CsiInspection:
    """CSI of the first coherence block of drop 0, with the condition metric
    over the estimate's subcarriers; ``pmi`` is the key ``(i11, i12, i13, i2)``."""

    ri: int
    pmi: tuple[int, int, int, int]
    wideband_sinr_db: int
    cqi: int
    gamma_min: float
    gamma_median: float
    gamma_max: float


class ProcessPoolExecutor:
    """A :class:`concurrent.futures.ProcessPoolExecutor`, imported when a
    pool starts, so that importing the package, or a run without workers,
    does not load the pool's modules.  Entering it enters, and returns,
    the real pool."""

    def __init__(self, max_workers: int):
        from concurrent.futures import ProcessPoolExecutor as Pool
        self._pool = Pool(max_workers=max_workers)

    def __enter__(self):
        return self._pool.__enter__()

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)


def run_drops(scenario: Scenario, workers: int, points) -> list:
    """``points(scenario, csi, u)`` on the CSI and ACK draws of every drop of
    one scenario, in drop order.

    A drop's CSI is ``drop_csi(scenario, drop_channel(scenario, seed))`` and
    its draws ``u`` are ``ack_draws(seed, n_slots)``, made once.  When
    ``scenario.drop_invariant_csi`` holds, the CSI is computed once, made
    read-only, and every drop gets that same object; otherwise each drop
    computes its own.  ``workers > 1`` fans the drops out to one process
    pool of at most one process per drop, which is sent the shared CSI or
    computes each drop's; the ordered gather keeps results identical to the
    sequential run.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seeds = [derive_seed(scenario.seed, d) for d in range(scenario.n_drops)]
    shared = _shared_csi(scenario, seeds[0]) if scenario.drop_invariant_csi else None
    if workers == 1:
        return [_drop(scenario, points, shared, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as ex:
        return list(ex.map(_drop, repeat(scenario), repeat(points), repeat(shared), seeds))


def _shared_csi(scenario: Scenario, seed: int) -> DropCsi:
    """The CSI of drop ``seed``, every array of it read-only, so that no drop
    can change what the next one sees."""
    csi = drop_csi(scenario, drop_channel(scenario, seed))
    for a in (*vars(csi.chan).values(), *csi.reports, csi.pair_eff_db):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return csi


def _drop(scenario: Scenario, points, shared: DropCsi | None, seed: int) -> list:
    """``points`` on the ACK draws of drop ``seed`` and on ``shared`` or,
    without it, the drop's own CSI."""
    return points(scenario, shared or drop_csi(scenario, drop_channel(scenario, seed)),
                  ack_draws(seed, scenario.n_slots))


def _cqi_points(scenario: Scenario, csi: DropCsi, u: np.ndarray) -> list[ThroughputStats]:
    """One drop at every forced CQI: one HARQ pass with one row per CQI."""
    return run_harq(scenario, csi, u, np.arange(N_CQI)[:, None])


def _drop_means(per_drop: list, fields: tuple[str, ...]) -> tuple[list, list, list]:
    """Each point's drops, in drop order, the mean over them of each of
    ``fields`` of :class:`ThroughputStats`, and the sample std of the
    first field (0 for one drop).

    One ``(points, fields, drops)`` table is reduced over its contiguous
    last axis, which NumPy sums as it sums a 1-D array, so every value has
    the bits of ``np.mean`` / ``np.std(ddof=1)`` over that point's drops.
    """
    points = list(zip(*per_drop))
    table = np.array([[[getattr(s, f) for s in stats] for f in fields] for stats in points])
    std = (table[:, 0].std(axis=-1, ddof=1) if len(per_drop) > 1
           else np.zeros(len(points)))
    return points, table.mean(axis=-1).tolist(), std.tolist()


def run_sweep_cqi(scenario: Scenario, workers: int = 1) -> list[CqiSweepRow]:
    """Force each CQI 0..15 in turn over the same drops."""
    if scenario.noise.mode == "snr_sweep":
        raise ScenarioError("sweep-cqi needs a single noise point, not snr_sweep")
    points, means, stds = _drop_means(run_drops(scenario, workers, _cqi_points),
                                      ("goodput_mbps", "mean_bler"))
    return [CqiSweepRow(cqi=cqi, mcs=mcs_from_cqi(cqi), goodput_mbps_mean=goodput,
                        goodput_mbps_std=std, mean_bler=mean_bler, drops=stats)
            for cqi, (stats, (goodput, mean_bler), std) in enumerate(zip(points, means, stds))]


def run_sweep_snr(scenario: Scenario, workers: int = 1) -> list[SnrSweepRow]:
    """Simulate every SNR point of an ``snr_sweep`` scenario over the same drops."""
    if scenario.noise.mode != "snr_sweep":
        raise ScenarioError("sweep-snr needs noise.mode = 'snr_sweep'")
    points, means, stds = _drop_means(run_drops(scenario, workers, run_harq),
                                      ("goodput_mbps", "mean_ri", "mean_cqi", "mean_mcs",
                                       "mean_bler"))
    return [SnrSweepRow(snr_db=float(snr), mean_ri=mean_ri, mean_cqi=mean_cqi,
                        mean_mcs=mean_mcs, mean_bler=mean_bler, goodput_mbps=goodput,
                        goodput_mbps_std=std, drops=stats)
            for snr, stats, (goodput, mean_ri, mean_cqi, mean_mcs, mean_bler), std
            in zip(scenario.noise.snr_db_list, points, means, stds)]


def run_csi_inspect(scenario: Scenario) -> CsiInspection:
    """One-shot CSI of the first coherence block of drop 0."""
    if scenario.noise.mode == "snr_sweep":
        raise ScenarioError("csi inspection needs a single noise point, not snr_sweep")
    chan = drop_channel(replace(scenario, n_slots=1), derive_seed(scenario.seed, 0))
    streams = estimate_streams(chan.seed, [0]) if scenario.est_error_var else None
    est = estimate_blocks(chan.h, scenario.est_error_var, streams, scenario.n_prb)
    ri, pmi, sinr_db, cqi = (int(c.flat[0]) for c in make_reports(
        est, scenario.noise_vars(chan.p_rx), scenario.csi))
    gammas = gamma_stack(est[0])
    return CsiInspection(ri=ri, pmi=tuple(build_codebook(scenario.n_tx, ri).keys[pmi].tolist()),
                         wideband_sinr_db=sinr_db, cqi=cqi, gamma_min=float(np.min(gammas)),
                         gamma_median=float(np.median(gammas)), gamma_max=float(np.max(gammas)))


def _fmt(x) -> str:
    """Deterministic CSV cell formatting (ints bare, floats 6 decimals)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.6f}"


def write_cqi_sweep_csv(rows: list[CqiSweepRow], fh: TextIO) -> None:
    fh.write("cqi,mcs,goodput_mbps_mean,goodput_mbps_std,mean_bler\n")
    for r in rows:
        cells = [r.cqi, r.mcs, r.goodput_mbps_mean, r.goodput_mbps_std, r.mean_bler]
        fh.write(",".join(_fmt(c) for c in cells) + "\n")


def write_snr_sweep_csv(rows: list[SnrSweepRow], fh: TextIO) -> None:
    fh.write("snr_db,mean_ri,mean_cqi,mean_mcs,mean_bler,goodput_mbps\n")
    for r in rows:
        cells = [r.snr_db, r.mean_ri, r.mean_cqi, r.mean_mcs, r.mean_bler,
                 r.goodput_mbps]
        fh.write(",".join(_fmt(c) for c in cells) + "\n")


def write_csi_csv(insp: CsiInspection, fh: TextIO) -> None:
    fh.write("ri,i11,i12,i13,i2,sinr_db,cqi,gamma_min,gamma_median,gamma_max\n")
    cells = [insp.ri, *insp.pmi, insp.wideband_sinr_db, insp.cqi,
             insp.gamma_min, insp.gamma_median, insp.gamma_max]
    fh.write(",".join(_fmt(c) for c in cells) + "\n")


def write_gnuplot_xy(points: list[tuple[float, float]], fh: TextIO) -> None:
    """Two-column (x, goodput) variant consumable by gnuplot's ``plot``."""
    fh.write("# x goodput_mbps\n")
    for x, y in points:
        fh.write(f"{_fmt(x)} {_fmt(y)}\n")


def write_codebook_csv(ports: int, rank: int, fh: TextIO) -> None:
    """Dump one codebook, one precoder per row, its matrix flattened row-major."""
    cb = build_codebook(ports, rank)
    cols = ["i11", "i12", "i13", "i2"]
    for r in range(ports):
        for c in range(rank):
            cols += [f"w{r}{c}_re", f"w{r}{c}_im"]
    fh.write(",".join(cols) + "\n")
    for key, w in zip(cb.keys.tolist(), cb.precoders):
        cells = [str(v) for v in key]
        for r in range(ports):
            for c in range(rank):
                cells += [f"{w[r, c].real:.12f}", f"{w[r, c].imag:.12f}"]
        fh.write(",".join(cells) + "\n")
