"""Command-line harness around the scenario drivers.

Subcommands
-----------
csi        one-shot CSI report of a scenario's first coherence block
sweep-cqi  force each CQI 0..15 and report goodput statistics
sweep-snr  run every SNR point of an snr_sweep scenario
codebook   dump a precoder codebook

All tabular output is CSV, to ``--out`` or stdout.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace
from functools import lru_cache

from .scenario import parse_scenario
from .sweeps import (run_csi_inspect, run_sweep_cqi, run_sweep_snr,
                     write_codebook_csv, write_cqi_sweep_csv, write_csi_csv,
                     write_gnuplot_xy, write_snr_sweep_csv)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and then shared: parsing
    leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="nrlinksim",
        description="Closed-loop MIMO downlink link-adaptation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_run_overrides: bool):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int, help="override scenario seed")
        if with_run_overrides:
            p.add_argument("--drops", type=int, help="override number of drops")
            p.add_argument("--slots", type=int, help="override slots per drop")
            p.add_argument("--workers", type=int, default=1,
                           help="processes to run drops in, one pool per sweep (default 1)")
            p.add_argument("--gnuplot",
                           help="also write a two-column (x, goodput) file")

    add_common(sub.add_parser("csi", help="one-shot CSI report"), False)
    add_common(sub.add_parser("sweep-cqi", help="forced-CQI goodput sweep"), True)
    add_common(sub.add_parser("sweep-snr", help="SNR goodput sweep"), True)

    cb = sub.add_parser("codebook", help="dump a precoder codebook")
    cb.add_argument("--ports", type=int, required=True, choices=(2, 4))
    cb.add_argument("--rank", type=int, required=True, choices=(1, 2))
    cb.add_argument("--out", help="output CSV path (default: stdout)")
    return parser


def _load_scenario(args):
    scenario = parse_scenario(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "drops", None) is not None:
        overrides["n_drops"] = args.drops
    if getattr(args, "slots", None) is not None:
        overrides["n_slots"] = args.slots
    return replace(scenario, **overrides) if overrides else scenario


def _out_handle(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _maybe_gnuplot(args, points: list[tuple[float, float]]) -> None:
    if getattr(args, "gnuplot", None):
        with open(args.gnuplot, "w", encoding="utf-8", newline="") as fh:
            write_gnuplot_xy(points, fh)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    try:
        if args.command == "codebook":
            with _out_handle(args.out) as fh:
                write_codebook_csv(args.ports, args.rank, fh)
            return 0
        scenario = _load_scenario(args)
        if args.command == "csi":
            result = run_csi_inspect(scenario)
            with _out_handle(args.out) as fh:
                write_csi_csv(result, fh)
        elif args.command == "sweep-cqi":
            rows = run_sweep_cqi(scenario, workers=args.workers)
            with _out_handle(args.out) as fh:
                write_cqi_sweep_csv(rows, fh)
            _maybe_gnuplot(args, [(r.cqi, r.goodput_mbps_mean) for r in rows])
        else:
            rows = run_sweep_snr(scenario, workers=args.workers)
            with _out_handle(args.out) as fh:
                write_snr_sweep_csv(rows, fh)
            _maybe_gnuplot(args, [(r.snr_db, r.goodput_mbps) for r in rows])
        return 0
    except (ValueError, OSError) as e:  # ScenarioError, ConfigurationError are ValueErrors
        print(f"nrlinksim: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
