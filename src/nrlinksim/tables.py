"""Modulation and coding tables used for link adaptation.

Both tables ship as CSV data files and are validated on load: indices
must be contiguous from zero and the stored spectral efficiency must
equal ``modulation_order * rate_x1024 / 1024`` exactly (the values are
dyadic rationals, so the float comparison is exact).

Note: the PDSCH MCS efficiencies are *not* strictly increasing — the
real table has a single dip between indices 16 and 17 where the
modulation order steps from 4 to 6 while the code rate drops.  The
tables are transcribed faithfully; consumers that need monotonicity
(such as the CQI-to-MCS mapping) use order-robust rules.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources


@dataclass(frozen=True)
class RateRow:
    """One PDSCH MCS or 4-bit CQI row: modulation order, code rate,
    efficiency.  CQI row 0 is 'out of range', with zero efficiency."""

    index: int
    modulation_order: int
    rate_x1024: int
    efficiency: float


McsEntry = CqiEntry = RateRow

N_MCS = 29
N_CQI = 16


def _read_rows(filename: str) -> tuple[RateRow, ...]:
    path = resources.files(__package__).joinpath("data", filename)
    with path.open("r", encoding="utf-8", newline="") as fh:
        return tuple(RateRow(int(r["index"]), int(r["modulation_order"]),
                             int(r["rate_x1024"]), float(r["efficiency"]))
                     for r in csv.DictReader(fh))


def _validate(rows, count: int, allow_zero_row: bool, what: str) -> None:
    if len(rows) != count:
        raise ValueError(f"{what} table must have {count} rows, found {len(rows)}")
    for i, r in enumerate(rows):
        if r.index != i:
            raise ValueError(f"{what} indices must be contiguous, row {i} has {r.index}")
        if r.index == 0 and allow_zero_row:
            if r.modulation_order != 0 or r.rate_x1024 != 0 or r.efficiency != 0.0:
                raise ValueError(f"{what} row 0 must be the out-of-range row")
            continue
        if r.modulation_order not in (2, 4, 6):
            raise ValueError(f"{what} row {i}: bad modulation order {r.modulation_order}")
        if not 0 < r.rate_x1024 < 1024:
            raise ValueError(f"{what} row {i}: bad rate {r.rate_x1024}")
        expect = r.modulation_order * r.rate_x1024 / 1024.0
        if r.efficiency != expect:
            raise ValueError(f"{what} row {i}: efficiency {r.efficiency} != {expect}")


@lru_cache(maxsize=1)
def load_mcs_table() -> tuple[RateRow, ...]:
    """The 29-row PDSCH MCS table (modulation orders up to 64QAM)."""
    rows = _read_rows("mcs_pdsch.csv")
    _validate(rows, N_MCS, allow_zero_row=False, what="MCS")
    return rows


@lru_cache(maxsize=1)
def load_cqi_table() -> tuple[RateRow, ...]:
    """The 16-row 4-bit CQI table (index 0 = out of range)."""
    rows = _read_rows("cqi_4bit.csv")
    _validate(rows, N_CQI, allow_zero_row=True, what="CQI")
    for lo, hi in zip(rows[1:], rows[2:]):
        if not hi.efficiency > lo.efficiency:
            raise ValueError("CQI efficiencies must be strictly increasing")
    return rows
