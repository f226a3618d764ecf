"""Experiment drivers: forced-CQI sweeps, SNR sweeps, CSI inspection.

Each driver returns plain result rows (which tests consume directly) and
has a matching CSV writer with a fixed column contract.  Results are
bitwise reproducible for a given scenario: drop seeds derive only from
``(scenario.seed, drop_index)``, never from the sweep point, so sweep
points share common random numbers.  Sweeps therefore run drop-major:
each drop is drawn once and serves every sweep point.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import TextIO

import numpy as np

from .channel import block_rx_power, derive_seed, estimate_blocks
from .codebook import build_codebook, build_codebook_set
from .csi import CsiReport, make_reports
from .linalg import gamma_stack
from .link import ThroughputStats, drop_channel, drop_csi, mcs_from_cqi, run_harq
from .scenario import Scenario, ScenarioError

N_CQI_POINTS = 16


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
    """CSI of the first coherence block of drop 0, with its noise variance
    and the condition metric over the estimate's subcarriers."""

    report: CsiReport
    noise_var: float
    gamma_min: float
    gamma_median: float
    gamma_max: float


def run_drops(scenario: Scenario, workers: int, drop) -> list:
    """``drop(scenario, seed)`` for every drop of one scenario, in drop order.

    ``workers > 1`` fans the drops out to one process pool; the ordered
    gather keeps results identical to the sequential run.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seeds = [derive_seed(scenario.seed, d) for d in range(scenario.n_drops)]
    if workers == 1:
        return [drop(scenario, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(drop, repeat(scenario), seeds))


def _cqi_points(scenario: Scenario, seed: int) -> list[ThroughputStats]:
    """One drop at every forced CQI: one channel and CSI pass, then HARQ per CQI."""
    csi = drop_csi(scenario, drop_channel(scenario, seed))
    return [run_harq(scenario.with_forced_cqi(cqi), csi) for cqi in range(N_CQI_POINTS)]


def _snr_points(scenario: Scenario, seed: int) -> list[ThroughputStats]:
    """One drop at every SNR point: one channel pass, then CSI and HARQ per point."""
    chan = drop_channel(scenario, seed)
    points = [scenario.at_snr(snr) for snr in scenario.noise.snr_db_list]
    return [run_harq(point, drop_csi(point, chan)) for point in points]


def _goodput_and_bler(stats) -> tuple[float, float, float]:
    """Goodput mean and sample std (0 for one drop), in Mbit/s, and mean BLER."""
    g = np.array([s.goodput_mbps for s in stats])
    std = float(np.std(g, ddof=1)) if len(g) > 1 else 0.0
    return float(np.mean(g)), std, float(np.mean([s.mean_bler for s in stats]))


def run_sweep_cqi(scenario: Scenario, workers: int = 1) -> list[CqiSweepRow]:
    """Force each CQI 0..15 in turn over the same drops."""
    if scenario.noise.mode == "snr_sweep":
        raise ScenarioError("sweep-cqi needs a single noise point, not snr_sweep")
    per_drop = run_drops(scenario, workers, _cqi_points)
    rows = []
    for cqi, stats in enumerate(zip(*per_drop)):
        mean, std, mean_bler = _goodput_and_bler(stats)
        rows.append(CqiSweepRow(cqi=cqi, mcs=mcs_from_cqi(cqi), goodput_mbps_mean=mean,
                                goodput_mbps_std=std, mean_bler=mean_bler, drops=stats))
    return rows


def run_sweep_snr(scenario: Scenario, workers: int = 1) -> list[SnrSweepRow]:
    """Simulate every SNR point of an ``snr_sweep`` scenario over the same drops."""
    if scenario.noise.mode != "snr_sweep":
        raise ScenarioError("sweep-snr needs noise.mode = 'snr_sweep'")
    per_drop = run_drops(scenario, workers, _snr_points)
    rows = []
    for snr, stats in zip(scenario.noise.snr_db_list, zip(*per_drop)):
        mean, std, mean_bler = _goodput_and_bler(stats)
        rows.append(SnrSweepRow(
            snr_db=float(snr),
            mean_ri=float(np.mean([s.mean_ri for s in stats])),
            mean_cqi=float(np.mean([s.mean_cqi for s in stats])),
            mean_mcs=float(np.mean([s.mean_mcs for s in stats])),
            mean_bler=mean_bler,
            goodput_mbps=mean,
            goodput_mbps_std=std,
            drops=stats,
        ))
    return rows


def run_csi_inspect(scenario: Scenario) -> CsiInspection:
    """One-shot CSI of the first coherence block of drop 0."""
    if scenario.noise.mode == "snr_sweep":
        raise ScenarioError("csi inspection needs a single noise point, not snr_sweep")
    drop_seed = derive_seed(scenario.seed, 0)
    h = scenario.block_channels(drop_seed, 1)
    noise_var = scenario.noise_var_for_power(block_rx_power(h, scenario.n_prb))
    est = estimate_blocks(h, scenario.est_error_var, drop_seed, [0], scenario.n_prb)
    report, = make_reports(est, noise_var, scenario.csi, build_codebook_set(scenario.n_tx))
    gammas = gamma_stack(est[0])
    return CsiInspection(
        report=report,
        noise_var=float(noise_var[0]),
        gamma_min=float(np.min(gammas)),
        gamma_median=float(np.median(gammas)),
        gamma_max=float(np.max(gammas)),
    )


def _fmt(x) -> str:
    """Deterministic CSV cell formatting (ints bare, floats 6 decimals)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return f"{xf:.6f}"


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
    rep = insp.report
    cells = [rep.ri, rep.pmi.i11, rep.pmi.i12, rep.pmi.i13, rep.pmi.i2,
             rep.wideband_sinr_db, rep.cqi,
             insp.gamma_min, insp.gamma_median, insp.gamma_max]
    fh.write(",".join(_fmt(c) for c in cells) + "\n")


def write_gnuplot_xy(points: list[tuple[float, float]], fh: TextIO) -> None:
    """Two-column (x, goodput) variant consumable by gnuplot's ``plot``."""
    fh.write("# x goodput_mbps\n")
    for x, y in points:
        fh.write(f"{_fmt(x)} {_fmt(y)}\n")


def write_codebook_csv(ports: int, rank: int, fh: TextIO) -> None:
    """Dump one codebook, one precoder per row, entries flattened row-major."""
    cb = build_codebook(ports, rank)
    cols = ["i11", "i12", "i13", "i2"]
    for r in range(ports):
        for c in range(rank):
            cols += [f"w{r}{c}_re", f"w{r}{c}_im"]
    fh.write(",".join(cols) + "\n")
    for idx, w in cb:
        cells = [str(v) for v in idx.key()]
        for r in range(ports):
            for c in range(rank):
                cells += [f"{w[r, c].real:.12f}", f"{w[r, c].imag:.12f}"]
        fh.write(",".join(cells) + "\n")
