"""The two 3GPP TS 38.214 tables of link adaptation: PDSCH MCS Table
5.1.3.1-1 (up to 64QAM) and 4-bit CQI Table 5.2.2.1-2.

Each is stated once, as its ``(modulation_order, rate_x1024)`` pairs in
index order.  The efficiency ``modulation_order * rate_x1024 / 1024`` is
computed from them, exactly: the values are dyadic rationals.

The PDSCH MCS efficiencies are not strictly increasing: the real table
dips once, from index 16 to 17, where the modulation order steps from 4
to 6 while the code rate drops.  Consumers that need monotonicity (such
as the CQI-to-MCS mapping) use order-robust rules.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RateRow:
    """One PDSCH MCS or 4-bit CQI row: modulation order, code rate,
    efficiency.  CQI row 0 is 'out of range', with zero efficiency."""

    index: int
    modulation_order: int
    rate_x1024: int
    efficiency: float


McsEntry = CqiEntry = RateRow


def _rows(pairs) -> tuple[RateRow, ...]:
    return tuple(RateRow(i, qm, rate, qm * rate / 1024.0) for i, (qm, rate) in enumerate(pairs))


_MCS = _rows([(2, 120), (2, 157), (2, 193), (2, 251), (2, 308), (2, 379), (2, 449), (2, 526),
              (2, 602), (2, 679), (4, 340), (4, 378), (4, 434), (4, 490), (4, 553), (4, 616),
              (4, 658), (6, 438), (6, 466), (6, 517), (6, 567), (6, 616), (6, 666), (6, 719),
              (6, 772), (6, 822), (6, 873), (6, 910), (6, 948)])

_CQI = _rows([(0, 0), (2, 78), (2, 120), (2, 193), (2, 308), (2, 449), (2, 602), (4, 378),
              (4, 490), (4, 616), (6, 466), (6, 567), (6, 666), (6, 772), (6, 873), (6, 948)])

N_MCS = len(_MCS)
N_CQI = len(_CQI)


def load_mcs_table() -> tuple[RateRow, ...]:
    """The 29-row PDSCH MCS table (modulation orders up to 64QAM)."""
    return _MCS


def load_cqi_table() -> tuple[RateRow, ...]:
    """The 16-row 4-bit CQI table (index 0 = out of range)."""
    return _CQI
