"""The benchmark recorder's summary of paired runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

CHANGE = [1.0, 2.0, 3.0, 4.0, 5.0]
PARENT = [2.0, 2.0, 4.0, 3.0, 6.0]


@pytest.mark.parametrize("better, wins", [("lower", 3), ("higher", 1), (None, None)])
def test_summary_of_pairs(better, wins):
    # Pair 2 ties and counts for neither side; the quartiles are the
    # inclusive ones, so five runs give the second and fourth values.
    change, parent, got = bench_record.summarize(CHANGE, PARENT, better)
    assert change == {"runs": CHANGE, "median": 3.0, "quartiles": [2.0, 4.0]}
    assert parent == {"runs": PARENT, "median": 3.0, "quartiles": [2.0, 4.0]}
    assert got == wins


def _run(sweep_s, rss, correct=True, status=0):
    return {"correct": correct, "attempted": 8, "failed": 0 if correct else 1,
            "exit_status": status,
            "metrics": {"sweep_s": {"value": sweep_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_pair_records_keep_the_single_run_keys():
    change = [_run(c, 40.0) for c in CHANGE]
    parent = [_run(p, 41.0) for p in PARENT[:4]] + [_run(PARENT[4], 41.0, False, 1)]
    got_change, got_parent = bench_record.pair_records(
        change, parent, {"sweep_s": "lower", "peak_rss_mb": "lower"})
    assert got_change["metrics"] == {"sweep_s": {"value": 3.0, "unit": "s"},
                                     "peak_rss_mb": {"value": 40.0, "unit": "MB"}}
    assert (got_change["correct"], got_change["attempted"], got_change["failed"],
            got_change["exit_status"]) == (True, 40, 0, 0)
    assert (got_parent["correct"], got_parent["failed"], got_parent["exit_status"]) == (
        False, 1, 1)
    for record in (got_change, got_parent):
        assert record["pairs"]["sweep_s"]["change_wins"] == 3
        assert record["pairs"]["peak_rss_mb"]["change_wins"] == 5
    assert got_parent["pairs"]["sweep_s"]["runs"] == PARENT


def test_phase_program_runs_on_this_checkout():
    # The phase timer is a program string run in a fresh interpreter, so
    # only a run shows that it still matches the names in ``link``.
    # record_phases raises unless nrlinksim came from this checkout's src/.
    root = TOOL.parents[1]
    got = bench_record.record_phases(root, Path("scenarios/csi_fixed_2x4.json"), 1)
    assert got.keys() == {"drops", "sweep", "blocks_per_drop", "report_blocks_per_drop",
                          "seconds"}
    assert got["seconds"].keys() == {"drop_channel", "drop_csi", "run_harq", "run_sweep"}
    assert (got["drops"], got["sweep"], got["blocks_per_drop"],
            got["report_blocks_per_drop"]) == (1, "run_sweep_cqi", 1, 1)
