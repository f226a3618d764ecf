#!/usr/bin/env python3
"""Record ``BENCH_<label>.json``: end-to-end benchmark numbers and drop phase times.

Run from the repository root, against this checkout alone or against a
change and its parent together:

    python3 tools/bench_record.py --label after
    python3 tools/bench_record.py --label pr --parent ../parent-checkout

It records two things about the checkout it belongs to:

- for each workload that its ``BENCHMARK.json`` gates, the JSON of the
  last stdout line of ``python3 perfbench/run.py --workload W --seconds S
  --trace 0``, run there as a subprocess;
- for each scenario in ``scenarios/`` and ``perfbench/scenarios/``, the
  wall time of ``drop_channel``, ``drop_csi`` and ``run_harq``, timed
  around the calls from outside ``src/`` and summed over the scenario's
  drops; per phase, the best of ``PHASE_REPEATS`` passes.  The
  ``drop_channel`` column includes the drop's ``ack_draws``.  A
  forced-CQI scenario runs ``run_harq`` with its 16 CQI rows, as
  ``sweep-cqi`` does.  These phases are what one drop costs on its own; a
  sweep may share work across drops, so the same scenario's whole
  ``run_sweep_snr`` (``snr_sweep`` noise) or ``run_sweep_cqi`` call is
  timed too, as ``run_sweep``, best of ``PHASE_REPEATS``.

It writes ``BENCH_<label>.json`` at the root of this checkout, with
``nproc``, the Python and NumPy versions, and the git SHA and
``src_lines`` (the ``wc -l`` total of ``src/nrlinksim/*.py``) of the
measured checkout.  Two files compare only when recorded on the same host:
timings are wall clock, on a shared host.

With ``--parent``, the checkout there is recorded too, as
``BENCH_<label>_parent.json``, in the same run: each workload and each
scenario runs on both checkouts back to back, and which one goes first
alternates from one item to the next, so drift of the host over the run
falls on both files alike.  Each workload then runs ``PAIRS`` times on
each side, so its first side alternates from pair to pair (ABBA order).
Its ``metrics`` hold the medians over those runs, and its ``pairs``
entry, in both files, holds per metric the runs in order, the median,
the quartiles and ``change_wins``: the pairs in which this checkout, not
the parent, read better by ``BENCHMARK.json``'s ``better``, ties
counting for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL_ROOT = Path(__file__).resolve().parents[1]
PHASE_REPEATS = 3
PAIRS = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Runs in a fresh interpreter: argv is <src dir> <scenario> <repeats> <forced CQI 0/1>.
PHASE_CODE = """\
import json, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
import nrlinksim
from nrlinksim.link import ack_draws, drop_channel, drop_csi, run_harq
scenario = nrlinksim.parse_scenario(sys.argv[2])
cqi = np.arange(16)[:, None] if sys.argv[4] == "1" else None
sweep = (nrlinksim.run_sweep_snr if scenario.noise.mode == "snr_sweep"
         else nrlinksim.run_sweep_cqi)
seeds = [nrlinksim.derive_seed(scenario.seed, d) for d in range(scenario.n_drops)]
best = {}
for _ in range(int(sys.argv[3])):
    spent = dict.fromkeys(("drop_channel", "drop_csi", "run_harq"), 0.0)
    t0 = time.perf_counter()
    sweep(scenario)
    spent["run_sweep"] = time.perf_counter() - t0
    for seed in seeds:
        t0 = time.perf_counter()
        chan = drop_channel(scenario, seed)
        u = ack_draws(seed, scenario.n_slots)
        t1 = time.perf_counter()
        csi = drop_csi(scenario, chan)
        t2 = time.perf_counter()
        run_harq(scenario, csi, u, cqi)
        t3 = time.perf_counter()
        for name, dt in (("drop_channel", t1 - t0), ("drop_csi", t2 - t1),
                         ("run_harq", t3 - t2)):
            spent[name] += dt
    best = {k: min(v, best.get(k, v)) for k, v in spent.items()}
print(json.dumps({"file": nrlinksim.__file__, "drops": len(seeds), "sweep": sweep.__name__,
                  "blocks_per_drop": int(chan.h.shape[0]),
                  "report_blocks_per_drop": int(chan.report_block.size),
                  "seconds": best}))
"""


def git_sha(repo: Path) -> str:
    proc = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def pinned_env() -> dict[str, str]:
    return dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))


def src_lines(repo: Path) -> int:
    """What ``wc -l src/nrlinksim/*.py`` totals in ``repo``."""
    return sum(p.read_bytes().count(b"\n") for p in (repo / "src" / "nrlinksim").glob("*.py"))


def last_json_line(proc: subprocess.CompletedProcess, what: str) -> dict:
    """The JSON on the last stdout line of ``proc``, which ran ``what``."""
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{what} exited with status {proc.returncode} "
                           "and printed no JSON line") from None


def record_workload(repo: Path, workload: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=repo, stdout=subprocess.PIPE, text=True, env=pinned_env(), timeout=900)
    result = last_json_line(proc, f"workload {workload}")
    result["exit_status"] = proc.returncode
    return result


def summarize(change: list[float], parent: list[float], better: str | None) -> tuple:
    """Each side's median and quartiles of one metric over pairs of runs,
    ``change[i]`` paired with ``parent[i]``, and the pairs the change wins
    when ``better`` ("lower" or "higher") is given, else ``None``."""
    def side(runs):
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return {"runs": runs, "median": statistics.median(runs), "quartiles": [q1, q3]}

    sign = {"lower": -1, "higher": 1}.get(better)
    wins = None if sign is None else sum(sign * (c - p) > 0 for c, p in zip(change, parent))
    return side(change), side(parent), wins


def pair_records(change: list[dict], parent: list[dict], better: dict) -> tuple[dict, dict]:
    """The workload entries of the change and of the parent from their
    paired ``perfbench/run.py`` results, in run order."""
    records = []
    for runs in (change, parent):
        records.append({
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "exit_status": max(r["exit_status"] for r in runs),
            "metrics": {}, "pairs": {},
        })
    for name, entry in change[0]["metrics"].items():
        values = [[r["metrics"][name]["value"] for r in runs] for runs in (change, parent)]
        *sides, wins = summarize(*values, better.get(name))
        for record, summary in zip(records, sides):
            record["metrics"][name] = {"value": summary["median"], "unit": entry["unit"]}
            record["pairs"][name] = dict(summary, change_wins=wins)
    return records[0], records[1]


def scenario_files(repo: Path) -> list[Path]:
    """The scenarios to time, relative to ``repo``."""
    return [p.relative_to(repo) for d in ("scenarios", "perfbench/scenarios")
            for p in sorted((repo / d).glob("*.json"))]


def record_phases(repo: Path, scenario: Path, repeats: int) -> dict:
    src = repo / "src"
    proc = subprocess.run(
        [sys.executable, "-c", PHASE_CODE, str(src), str(repo / scenario), str(repeats),
         "1" if scenario.stem.startswith("cqi_sweep_") else "0"],
        stdout=subprocess.PIPE, text=True, env=pinned_env(), timeout=1800)
    if proc.returncode:
        raise RuntimeError(f"phases of {scenario.name} exited with status {proc.returncode}")
    result = last_json_line(proc, f"phases of {scenario.name}")
    if Path(result.pop("file")).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"{scenario.name}: nrlinksim was not imported from {src}")
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--label", required=True, help="file name is BENCH_<label>.json")
    ap.add_argument("--parent", type=Path,
                    help="checkout to record as BENCH_<label>_parent.json, "
                         "interleaved with this one item by item")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="run length of each perfbench/run.py workload")
    args = ap.parse_args(argv)
    sides = {args.label: TOOL_ROOT}
    pairs = 1
    if args.parent is not None:
        sides[f"{args.label}_parent"] = args.parent.resolve()
        pairs = PAIRS

    bench = json.loads((TOOL_ROOT / "BENCHMARK.json").read_text())
    items = [("workloads", w["name"]) for w in bench["workloads"] for _ in range(pairs)]
    items += [("phases", scenario) for scenario in scenario_files(TOOL_ROOT)]
    results = {label: {"workloads": {}, "phases": {}} for label in sides}
    # Every item runs on each side; the side that goes first alternates.
    for i, (kind, item) in enumerate(items):
        for label in (list(sides) if i % 2 else list(sides)[::-1]):
            where = sides[label]
            if kind == "workloads":
                print(f"{label}: workload {item} ...", file=sys.stderr)
                results[label][kind].setdefault(item, []).append(
                    record_workload(where, item, args.seconds))
            else:
                print(f"{label}: phases {item.name} ...", file=sys.stderr)
                results[label][kind][item.name] = record_phases(where, item, PHASE_REPEATS)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    for name in results[args.label]["workloads"]:
        runs = [results[label]["workloads"][name] for label in sides]
        paired = pair_records(*runs, better) if args.parent is not None else [r[0] for r in runs]
        for label, record in zip(sides, paired):
            results[label]["workloads"][name] = record

    nproc = os.cpu_count()
    for label, where in sides.items():
        record = {
            "label": label,
            "git_sha": git_sha(where),
            "src_lines": src_lines(where),
            "nproc": nproc,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "note": (f"Wall-clock timings from a shared {nproc}-core host, {pairs} "
                     "run(s) per workload, one reading per phase; other tenants add "
                     "run-to-run drift, so compare only files recorded on the same host."),
            "interleaved_with": [other for other in sides if other != label],
            "workload_seconds": args.seconds,
            "workload_pairs": pairs,
            "phase_repeats": PHASE_REPEATS,
            **results[label],
        }
        out = TOOL_ROOT / f"BENCH_{label}.json"
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0 if all(w["exit_status"] == 0 for r in results.values()
                    for w in r["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
