"""Workload table, in-process sweep runs and CSV correctness checks.

Every workload is one sweep subcommand run through ``nrlinksim.cli.main``
in this process, writing its CSV under ``.bench_out/`` of the checkout.
The package is always imported from this checkout's ``src/`` tree, never
from an installed copy, so the numbers belong to the code beside them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_JSON = BENCH_DIR / "reference.json"
REFERENCE_DIR = BENCH_DIR / "reference"

# BLAS/OpenMP pools are pinned to one thread so that NumPy's small matrix
# products never compete with the sweep (or with pool workers) for cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

HEADERS = {
    "sweep-cqi": "cqi,mcs,goodput_mbps_mean,goodput_mbps_std,mean_bler",
    "sweep-snr": "snr_db,mean_ri,mean_cqi,mean_mcs,mean_bler,goodput_mbps",
}
N_CQI_POINTS = 16


class SourceTreeMissing(RuntimeError):
    """The checkout does not hold the simulator's sources and scenarios."""


def pin_threads() -> dict[str, str]:
    """Pin native thread pools to one thread; call before NumPy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_nrlinksim():
    """Import ``nrlinksim`` from ``<checkout>/src`` and nowhere else."""
    init = SRC / "nrlinksim" / "__init__.py"
    if not init.is_file():
        raise SourceTreeMissing(f"{init} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import nrlinksim
    if Path(nrlinksim.__file__).resolve() != init.resolve():
        raise SourceTreeMissing(
            f"imported nrlinksim from {nrlinksim.__file__}, not from {SRC}")
    return nrlinksim


@dataclass(frozen=True)
class Workload:
    """One sweep run end to end through the CLI."""

    name: str
    command: str   # "sweep-cqi" or "sweep-snr"
    config: str    # scenario file, relative to the repository root
    golden_seed: int
    drops: int
    workers: int
    why: str

    def argv(self, seed: int, out: Path, drops: int | None = None,
             slots: int | None = None) -> list[str]:
        argv = [self.command, "--config", str(ROOT / self.config),
                "--seed", str(seed), "--drops", str(drops or self.drops),
                "--workers", str(self.workers), "--out", str(out)]
        if slots is not None:
            argv += ["--slots", str(slots)]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload("cqi_rice_2x4", "sweep-cqi", "scenarios/cqi_sweep_rice1_2x4.json",
             golden_seed=2, drops=1, workers=1,
             why="Rician 2x4 forced-CQI sweep: 200 fading blocks per drop, channel "
                 "draw, RI and PMI redone for each of 16 CQI points; shows per-block "
                 "batching and reuse across CQI points"),
    Workload("snr_rice_2x4_esterr", "sweep-snr",
             "perfbench/scenarios/snr_sweep_rice1_2x4_esterr.json",
             golden_seed=3, drops=1, workers=1,
             why="Rician 2x4 SNR sweep with estimation error 0.01: every PMI search "
                 "spans 106 subcarriers x 32 candidates, so the arithmetic-bound "
                 "path and the largest batched arrays show"),
    Workload("snr_fixed_2x2", "sweep-snr", "scenarios/snr_sweep_fixed_2x2.json",
             golden_seed=4, drops=5, workers=1,
             why="fixed 2x2 SNR sweep: CSI once per drop, so the 2000-slot HARQ loop "
                 "and BLER dominate and channel/CSI changes should not move it"),
    Workload("cqi_fixed_2x4_w2", "sweep-cqi", "scenarios/cqi_sweep_fixed_2x4.json",
             golden_seed=1, drops=20, workers=2,
             why="fixed 2x4 forced-CQI sweep with --workers 2: the only workload "
                 "that runs the process pool, one new pool per CQI point today"),
)}


# Runnable by hand but left out of BENCHMARK.json: with two pool workers on
# two shared cores its run-to-run spread was too wide to gate on.
UNGATED = {"cqi_fixed_2x4_w2"}


def sweep_shape(nrlinksim, wl: Workload) -> tuple[list[str], int]:
    """Expected first-column cells of the CSV and simulated slots per sweep."""
    scenario = nrlinksim.parse_scenario(ROOT / wl.config)
    if wl.command == "sweep-cqi":
        xs = [str(c) for c in range(N_CQI_POINTS)]
    else:
        xs = [f"{float(s):.6f}" for s in scenario.noise.snr_db_list]
    return xs, len(xs) * wl.drops * scenario.n_slots


@dataclass
class Sweep:
    seconds: float
    rc: int
    text: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def run_sweep(cli, wl: Workload, seed: int, drops: int | None = None,
              slots: int | None = None) -> Sweep:
    """One sweep through ``cli.main``: parse, run, write the CSV.

    ``cli.main`` is looked up on the module at call time so that a
    tracer's wrapper, when installed, is the one that runs.
    """
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{wl.name}.csv"
    out.unlink(missing_ok=True)
    argv = wl.argv(seed, out, drops, slots)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    seconds = time.perf_counter() - t0
    text = out.read_text(encoding="utf-8") if rc == 0 and out.is_file() else ""
    return Sweep(seconds, rc, text)


def _row_ok(cells: list[str], x: str, n_cols: int) -> bool:
    if len(cells) != n_cols or cells[0] != x:
        return False
    try:
        values = [float(c) for c in cells]
    except ValueError:
        return False
    # Every column is a non-negative finite mean; BLER is a probability.
    return all(math.isfinite(v) and v >= 0.0 for v in values)


def failed_points(wl: Workload, text: str, xs: list[str],
                  reference: str | None) -> int:
    """Sweep points whose CSV row is malformed or differs from ``reference``.

    With no reference only the structure is checked: header, one row per
    sweep point in order, finite non-negative cells, BLER within [0, 1].
    """
    lines = text.splitlines()
    if not lines or lines[0] != HEADERS[wl.command]:
        return len(xs)
    header = lines[0].split(",")
    bler_col = header.index("mean_bler")
    rows = lines[1:]
    ref_rows = reference.splitlines()[1:] if reference is not None else None
    failed = abs(len(xs) - len(rows))
    for i, (x, row) in enumerate(zip(xs, rows)):
        cells = row.split(",")
        ok = _row_ok(cells, x, len(header)) and float(cells[bler_col]) <= 1.0
        if ref_rows is not None:
            ok = ok and i < len(ref_rows) and row == ref_rows[i]
        failed += not ok
    return min(failed, len(xs))


def load_reference() -> dict:
    with open(REFERENCE_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def reference_csv(wl: Workload) -> str:
    """Stored CSV of ``wl`` at its golden seed, checked against its digest."""
    text = (REFERENCE_DIR / f"{wl.name}.csv").read_text(encoding="utf-8")
    entry = load_reference()["workloads"][wl.name]
    if entry["seed"] != wl.golden_seed or entry["drops"] != wl.drops:
        raise ValueError(f"reference for {wl.name} was taken at another run length")
    if hashlib.sha256(text.encode()).hexdigest() != entry["sha256"]:
        raise ValueError(f"reference CSV of {wl.name} does not match its digest")
    return text
