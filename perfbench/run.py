#!/usr/bin/env python3
"""nrlinksim sweep benchmark.

Runs one workload end to end through ``nrlinksim.cli.main``, in this
process, for a fixed wall-clock budget, checks every CSV it writes and
prints one JSON object as the last line of standard output.  Run from
the repository root:

    python3 perfbench/run.py --workload cqi_rice_2x4 --seed 2 --seconds 34 --trace 0
    python3 perfbench/run.py --all        # every workload, all end-to-end metrics

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced sweeps of the same seed and
reports the per-layer metrics of the traced ones (see ``spans.py``),
with the tracing overhead.  The environment, the CSV digests and a
readable table go to standard error.  The exit status is 0 when every
check passed, 1 when a sweep point failed or a CSV differs from its
reference (the JSON line is still printed), and 2 when the checkout
cannot be benchmarked (no JSON line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads as wk

MIN_SWEEPS = 3       # timed sweeps per run, however short --seconds is
SETUP_PROBES = 9     # fresh interpreters timed per run for setup_s

# Timed in a fresh interpreter: what every CLI invocation pays before
# its first drop.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nrlinksim
nrlinksim.parse_scenario(sys.argv[2])
nrlinksim.build_codebook_set(2)
nrlinksim.build_codebook_set(4)
nrlinksim.load_mcs_table()
nrlinksim.load_cqi_table()
print(repr(time.perf_counter() - t0))
"""


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = wk.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(threads: dict[str, str]) -> dict:
    import numpy
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "loadavg_start": os.getloadavg(),
        "threads": threads,
        "timing": f"wall clock on a shared {nproc}-core host; other tenants "
                  "add run-to-run drift",
    }


def setup_probe(wl: wk.Workload) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(wk.SRC), str(wk.ROOT / wl.config)],
        capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb(wl: wk.Workload) -> float:
    """Peak RSS of this process; with a pool, of its largest child too."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.workers > 1:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


class Checker:
    """Counts sweep points attempted and failed over one run.

    At the workload's golden seed every CSV must equal the stored
    reference.  At another seed the first CSV is checked for structure
    and becomes the reference for the rest of the run, and one extra
    sweep at the golden seed is checked against the stored reference.
    """

    def __init__(self, nrlinksim, wl: wk.Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.xs, self.slots_per_sweep = wk.sweep_shape(nrlinksim, wl)
        self.golden = wk.reference_csv(wl)
        self.reference = self.golden if seed == wl.golden_seed else None
        self.attempted = self.failed = 0
        self.digests: dict[int, set[str]] = {}

    def check(self, sweep: wk.Sweep, seed: int | None = None) -> None:
        seed = self.seed if seed is None else seed
        reference = self.golden if seed == self.wl.golden_seed else self.reference
        n = len(self.xs)
        failed = n if sweep.rc != 0 else wk.failed_points(
            self.wl, sweep.text, self.xs, reference)
        self.attempted += n
        self.failed += failed
        self.digests.setdefault(seed, set()).add(sweep.digest)
        if seed == self.seed and self.reference is None:
            self.reference = sweep.text

    def check_golden_seed(self, cli) -> None:
        if self.seed != self.wl.golden_seed:
            self.check(wk.run_sweep(cli, self.wl, self.wl.golden_seed),
                       self.wl.golden_seed)


def measure(cli, nrlinksim, wl: wk.Workload, seed: int, seconds: float):
    """End-to-end metrics with tracing off."""
    checker = Checker(nrlinksim, wl, seed)
    checker.check(wk.run_sweep(cli, wl, seed))   # warm-up, untimed
    setup_probe(wl)                              # warm-up, discarded
    sweeps, setups = [], []
    deadline = time.perf_counter() + seconds
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() < deadline:
        sweep = wk.run_sweep(cli, wl, seed)
        checker.check(sweep)
        sweeps.append(sweep.seconds)
        if len(setups) < SETUP_PROBES:
            setups.append(setup_probe(wl))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(wl))
    checker.check_golden_seed(cli)
    # The 90th percentile, not the median: on a shared host, bursts of
    # spare capacity speed up some sweeps by up to 2x and come and go,
    # while the slow level they interrupt repeats from run to run.
    sweep_s = statistics.quantiles(sweeps, n=10, method="inclusive")[-1]
    metrics = {
        "sweep_s": (sweep_s, "s"),
        "slots_per_s": (checker.slots_per_sweep / sweep_s, "slots/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    notes = [f"sweep_s is the 90th percentile of {len(sweeps)} sweeps: min "
             f"{min(sweeps):.4f}, median {statistics.median(sweeps):.4f}, max "
             f"{max(sweeps):.4f}; setup_s is the median of {len(setups)} interpreters"]
    return checker, metrics, notes


def measure_traced(cli, nrlinksim, wl: wk.Workload, seed: int, seconds: float):
    """Per-layer metrics: traced sweeps alternate with untraced ones."""
    from spans import UNITS, Tracer
    checker = Checker(nrlinksim, wl, seed)
    checker.check(wk.run_sweep(cli, wl, seed))   # warm-up, untimed
    untraced, traced, per_sweep, notes = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_SWEEPS or time.perf_counter() < deadline:
        plain = wk.run_sweep(cli, wl, seed)
        with Tracer(in_process_drops=wl.workers == 1) as tracer:
            sweep = wk.run_sweep(cli, wl, seed)
        for s in (plain, sweep):
            checker.check(s)
        if sweep.text != plain.text:
            checker.failed += len(checker.xs)
            notes.append("traced CSV differs from the untraced one")
        untraced.append(plain.seconds)
        traced.append(sweep.seconds)
        per_sweep.append(tracer.metrics(sweep.seconds))
    checker.check_golden_seed(cli)
    metrics = {name: (statistics.median(m[name] for m in per_sweep), UNITS[name])
               for name in per_sweep[0]}
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    notes += tracer.unavailable()
    notes.append(f"{len(traced)} traced and {len(untraced)} untraced sweeps")
    return checker, metrics, notes


def run_one(args) -> int:
    threads = wk.pin_threads()
    try:
        nrlinksim = wk.import_nrlinksim()
        for path in (wk.ROOT / w.config for w in wk.WORKLOADS.values()):
            if not path.is_file():
                raise wk.SourceTreeMissing(f"scenario {path} not found")
    except wk.SourceTreeMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    from nrlinksim import cli
    wl = wk.WORKLOADS[args.workload]
    env = environment(threads)
    print("env " + json.dumps(env), file=sys.stderr)
    measure_fn = measure_traced if args.trace else measure
    checker, metrics, notes = measure_fn(cli, nrlinksim, wl, args.seed, args.seconds)

    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    for seed, digests in sorted(checker.digests.items()):
        print(f"csv sha256 {wl.name} seed {seed}: {' '.join(sorted(digests))}",
              file=sys.stderr)
    point_fail_frac = checker.failed / checker.attempted
    print(f"{'point_fail_frac':28s} {point_fail_frac:.6g} ratio "
          f"({checker.failed} of {checker.attempted} sweep points)", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}", file=sys.stderr)

    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seconds: float) -> int:
    """Every workload at its golden seed, each in a fresh process."""
    rows, status = [], 0
    for wl in wk.WORKLOADS.values():
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", wl.name,
             "--seed", str(wl.golden_seed), "--seconds", repr(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=900)
        status = max(status, proc.returncode)
        if not proc.stdout.strip():
            rows.append((wl.name, "error", float("nan"), f"exit {proc.returncode}"))
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            rows.append((wl.name, name, m["value"], m["unit"]))
        rows.append((wl.name, "point_fail_frac",
                     result["failed"] / result["attempted"], "ratio"))
    print(f"{'workload':22s} {'metric':16s} {'value':>14s} unit")
    for name, metric, value, unit in rows:
        print(f"{name:22s} {metric:16s} {value:14.6g} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wk.WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload at its golden seed and print a table")
    parser.add_argument("--seed", type=int, help="scenario seed (default: golden seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall-clock budget of the timed sweeps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.all:
        return run_all(args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.seed is None:
        args.seed = wk.WORKLOADS[args.workload].golden_seed
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
