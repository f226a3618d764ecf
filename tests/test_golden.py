"""Byte identity of the golden scenarios' CSVs.

Each golden sweep, and the CSI report of ``csi_fixed_2x4.json``, is
rendered with the CLI's CSV writers and its SHA-256 compared with the
digest recorded in ``perfbench/reference.json``.  The ``codebook``
command's four CSVs are compared with the digests stored here.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from nrlinksim.scenario import parse_scenario
from nrlinksim.sweeps import (run_csi_inspect, write_codebook_csv, write_cqi_sweep_csv,
                              write_csi_csv, write_snr_sweep_csv)

from conftest import scenario_path

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# Session fixture of each golden sweep -> its scenario file.
GOLDEN_SWEEPS = {
    "cqi_fixed_2x4": "cqi_sweep_fixed_2x4.json",
    "cqi_rice_2x4": "cqi_sweep_rice1_2x4.json",
    "snr_rice_2x4": "snr_sweep_rice1_2x4.json",
    "snr_rice_2x2": "snr_sweep_rice1_2x2.json",
    "snr_fixed_2x4": "snr_sweep_fixed_2x4.json",
    "snr_fixed_2x2": "snr_sweep_fixed_2x2.json",
}

# SHA-256 of ``nrlinksim codebook --ports P --rank R``, keyed by (P, R).
CODEBOOK_DIGESTS = {
    (2, 1): "442ec9e655c4f3fc3668952efb188afd2bceda0c5e523bf259ee9b9b84513978",
    (2, 2): "5593abeb6f965aec82db6bbf306e8d54df4c97a9ea1d9d611e8736994957172d",
    (4, 1): "486f89bfda92591b88130ef9b7d89ec21c197919176aeb137bc4831df6e8b6ed",
    (4, 2): "478f39cfcf0115ce1255d78f2d02496639f73ff3940651809568a10d2ae9822c",
}


def _golden_digest(name: str) -> str:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["golden"][name]


def _sha256(render, rows) -> str:
    buf = io.StringIO()
    render(rows, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fixture", sorted(GOLDEN_SWEEPS))
def test_golden_sweep_csv_digest(fixture, request):
    rows, _ = request.getfixturevalue(fixture)
    render = write_cqi_sweep_csv if fixture.startswith("cqi_") else write_snr_sweep_csv
    assert _sha256(render, rows) == _golden_digest(GOLDEN_SWEEPS[fixture])


def test_golden_csi_csv_digest():
    insp = run_csi_inspect(parse_scenario(scenario_path("csi_fixed_2x4.json")))
    assert _sha256(write_csi_csv, insp) == _golden_digest("csi_fixed_2x4.json")


@pytest.mark.parametrize("ports,rank", sorted(CODEBOOK_DIGESTS))
def test_codebook_csv_digest(ports, rank):
    buf = io.StringIO()
    write_codebook_csv(ports, rank, buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == \
        CODEBOOK_DIGESTS[(ports, rank)]
