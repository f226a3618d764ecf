#!/usr/bin/env python3
"""Full-size correctness check of the golden scenarios.

Runs every ``scenarios/*.json`` once through ``nrlinksim.cli.main`` at
its committed seed, drops and slots, and compares the SHA-256 of the CSV
with ``perfbench/reference.json``.  It takes about a minute on two cores,
so it is kept apart from the timed runs of ``run.py``.  Run from the
repository root:

    python3 perfbench/golden.py

Exit status 0 when every digest matches, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import sys
import time

import workloads as wk

SCENARIO_DIR = wk.ROOT / "scenarios"


def command_for(stem: str) -> str:
    if stem.startswith("csi_"):
        return "csi"
    if stem.startswith("cqi_sweep_"):
        return "sweep-cqi"
    return "sweep-snr"


def main() -> int:
    wk.pin_threads()
    wk.import_nrlinksim()
    from nrlinksim import cli
    expected = wk.load_reference()["golden"]
    wk.OUT_DIR.mkdir(exist_ok=True)
    status = 0
    seen = set()
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        out = wk.OUT_DIR / f"golden_{path.stem}.csv"
        t0 = time.perf_counter()
        rc = cli.main([command_for(path.stem), "--config", str(path), "--out", str(out)])
        seconds = time.perf_counter() - t0
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if rc == 0 else "-"
        seen.add(path.name)
        want = expected.get(path.name)
        if want is None:
            verdict = "NO REFERENCE"
        elif digest == want:
            verdict = "ok"
        else:
            verdict = "DIFFERS"
            status = 1
        print(f"{path.name:28s} {seconds:7.2f} s  {digest}  {verdict}")
    for name in sorted(set(expected) - seen):
        print(f"{name:28s} missing")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
