"""Unit tests for the MCS / CQI tables."""

import pytest

from nrlinksim.tables import (CqiEntry, McsEntry, N_CQI, N_MCS, load_cqi_table,
                              load_mcs_table)

# Every row of both tables as (index, modulation order, rate x 1024),
# restated from TS 38.214 to pin the constants against accidental edits.
MCS_ROWS = [
    (0, 2, 120), (1, 2, 157), (2, 2, 193), (3, 2, 251), (4, 2, 308), (5, 2, 379),
    (6, 2, 449), (7, 2, 526), (8, 2, 602), (9, 2, 679), (10, 4, 340), (11, 4, 378),
    (12, 4, 434), (13, 4, 490), (14, 4, 553), (15, 4, 616), (16, 4, 658), (17, 6, 438),
    (18, 6, 466), (19, 6, 517), (20, 6, 567), (21, 6, 616), (22, 6, 666), (23, 6, 719),
    (24, 6, 772), (25, 6, 822), (26, 6, 873), (27, 6, 910), (28, 6, 948),
]
CQI_ROWS = [
    (0, 0, 0), (1, 2, 78), (2, 2, 120), (3, 2, 193), (4, 2, 308), (5, 2, 449),
    (6, 2, 602), (7, 4, 378), (8, 4, 490), (9, 4, 616), (10, 6, 466), (11, 6, 567),
    (12, 6, 666), (13, 6, 772), (14, 6, 873), (15, 6, 948),
]


@pytest.mark.parametrize("load,rows", [(load_mcs_table, MCS_ROWS), (load_cqi_table, CQI_ROWS)],
                         ids=["mcs", "cqi"])
def test_rows_pinned(load, rows):
    assert [(e.index, e.modulation_order, e.rate_x1024) for e in load()] == rows


def test_rates_inside_unit_interval():
    # Every row but CQI 0, the out-of-range row, codes at a rate in (0, 1).
    for e in load_mcs_table() + load_cqi_table()[1:]:
        assert 0 < e.rate_x1024 < 1024, e


class TestMcsTable:
    def test_row_count(self):
        assert len(load_mcs_table()) == N_MCS == 29

    def test_indices_contiguous(self):
        assert [e.index for e in load_mcs_table()] == list(range(29))

    @pytest.mark.parametrize("index,qm,rate,eff", [
        (0, 2, 120, 0.234375),
        (9, 2, 679, 1.326171875),
        (10, 4, 340, 1.328125),
        (16, 4, 658, 2.5703125),
        (17, 6, 438, 2.56640625),
        (28, 6, 948, 5.5546875),
    ])
    def test_known_rows(self, index, qm, rate, eff):
        e = load_mcs_table()[index]
        assert e == McsEntry(index, qm, rate, eff)

    def test_efficiency_identity_exact(self):
        for e in load_mcs_table():
            assert e.efficiency == e.modulation_order * e.rate_x1024 / 1024.0

    def test_modulation_orders(self):
        assert {e.modulation_order for e in load_mcs_table()} == {2, 4, 6}

    def test_efficiency_shape(self):
        # The modulation switch from row 16 (16QAM) to 17 (64QAM) steps the
        # efficiency down slightly; everywhere else it increases.
        effs = [e.efficiency for e in load_mcs_table()]
        dips = [i for i in range(28) if effs[i + 1] <= effs[i]]
        assert dips == [16]
        assert effs[17] < effs[16]

    def test_cached(self):
        assert load_mcs_table() is load_mcs_table()


class TestCqiTable:
    def test_row_count(self):
        assert len(load_cqi_table()) == N_CQI == 16

    def test_zero_row(self):
        assert load_cqi_table()[0] == CqiEntry(0, 0, 0, 0.0)

    def test_modulation_orders_after_zero(self):
        assert {e.modulation_order for e in load_cqi_table()[1:]} == {2, 4, 6}

    @pytest.mark.parametrize("index,qm,rate,eff", [
        (1, 2, 78, 0.15234375),
        (4, 2, 308, 0.6015625),
        (7, 4, 378, 1.4765625),
        (10, 6, 466, 2.73046875),
        (15, 6, 948, 5.5546875),
    ])
    def test_known_rows(self, index, qm, rate, eff):
        e = load_cqi_table()[index]
        assert e == CqiEntry(index, qm, rate, eff)

    def test_strictly_increasing_after_zero(self):
        effs = [e.efficiency for e in load_cqi_table()]
        assert all(b > a for a, b in zip(effs[1:], effs[2:]))

    def test_efficiency_identity_exact(self):
        for e in load_cqi_table()[1:]:
            assert e.efficiency == e.modulation_order * e.rate_x1024 / 1024.0

    def test_top_rows_match_mcs_top(self):
        # Identical modulation/coding at the very top of both tables.
        assert load_cqi_table()[15].efficiency == load_mcs_table()[28].efficiency

    def test_cached(self):
        assert load_cqi_table() is load_cqi_table()
