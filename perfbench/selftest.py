#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size.  Run from the repository root:

    python3 perfbench/selftest.py

For every workload, at its golden seed with 40 slots per drop:

- the traced CSV is byte-identical to the untraced one;
- every count and ratio of the trace repeats exactly across two traced
  sweeps;
- the per-layer self times add up to the traced sweep's wall time within
  ``SUM_REL_TOL`` of it plus ``SUM_ABS_TOL`` (the gap is the benchmark's
  own call into ``cli.main`` around the root span).

It also checks that ``BENCHMARK.json`` names the gated workloads and the
metrics that the benchmark reports, and that ``run.py`` exits with status 2
and prints no result in a directory holding only the benchmark.
Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import workloads as wk

SLOTS = 40
SUM_REL_TOL = 0.01
SUM_ABS_TOL = 0.002
END_TO_END = [("sweep_s", "s", "lower"), ("slots_per_s", "slots/s", "higher"),
              ("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower")]

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def check_manifest() -> None:
    from spans import PER_LAYER
    with open(wk.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    listed = [(w["name"], w["why"]) for w in manifest["workloads"]]
    expect(listed == [(w.name, w.why) for w in wk.WORKLOADS.values()
                      if w.name not in wk.UNGATED],
           "BENCHMARK.json lists every gated workload of the table")
    expect([(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
           == PER_LAYER, "BENCHMARK.json per_layer matches spans.PER_LAYER")
    expect([(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]]
           == END_TO_END, "BENCHMARK.json end_to_end matches run.py")


def check_workload(cli, wl: wk.Workload) -> None:
    from spans import UNITS, Tracer
    drops = 2 if wl.workers > 1 else 1
    plain = wk.run_sweep(cli, wl, wl.golden_seed, drops, SLOTS)
    runs = []
    for _ in range(2):
        with Tracer(in_process_drops=wl.workers == 1) as tracer:
            sweep = wk.run_sweep(cli, wl, wl.golden_seed, drops, SLOTS)
        runs.append((sweep, tracer, tracer.metrics(sweep.seconds)))
    expect(plain.rc == 0 and plain.text != "", f"{wl.name}: sweep succeeds")
    expect(all(s.text == plain.text for s, _, _ in runs),
           f"{wl.name}: traced CSV is byte-identical to the untraced one")
    exact = [n for n, unit in UNITS.items() if unit in ("count", "ratio")
             and n in runs[0][2]]
    expect(all(runs[0][2][n] == runs[1][2][n] for n in exact),
           f"{wl.name}: {len(exact)} counts and ratios repeat exactly")
    for sweep, tracer, _ in runs:
        total = sum(tracer.self_times().values())
        gap = abs(total - sweep.seconds)
        expect(gap <= SUM_REL_TOL * sweep.seconds + SUM_ABS_TOL,
               f"{wl.name}: self times sum to {total:.4f} s against a "
               f"{sweep.seconds:.4f} s sweep")
    expect(not runs[0][1].missing, f"{wl.name}: every trace target found")


def check_bare_directory() -> None:
    """Without the simulator's sources the benchmark must fail, silently."""
    bare = wk.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(wk.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(wk.BENCH_DIR, bare / wk.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snr_fixed_2x2",
         "--seed", "4", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    expect(proc.returncode not in (0, None) and proc.stdout.strip() == "",
           f"bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    wk.pin_threads()
    wk.import_nrlinksim()
    from nrlinksim import cli
    check_manifest()
    for wl in wk.WORKLOADS.values():
        check_workload(cli, wl)
    check_bare_directory()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
