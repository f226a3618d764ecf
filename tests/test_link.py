"""Unit tests for gNB link adaptation, PHY abstraction, and the drop loop."""

import math

import numpy as np
import pytest

from nrlinksim.codebook import PmiIndex, precoder_for
from nrlinksim.link import (DATA_RE_PER_PRB, SLOT_DURATION_S, ThroughputStats,
                            bler, decode_threshold_db, effective_sinrs_db,
                            mcs_from_cqi, tbs)
from nrlinksim.scenario import scenario_from_dict
from nrlinksim.tables import load_mcs_table

from conftest import simulate_drop

H_2X4_REF = [[1.0, 0.5, 0.25, 0.125], [0.125, 0.25, 0.5, 1.0]]
H_ORTHO = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]

# Every CQI and the MCS the scheduler maps it to.
MCS_FROM_CQI = {0: 0, 1: 0, 2: 0, 3: 2, 4: 4, 5: 6, 6: 8, 7: 11, 8: 13,
                9: 15, 10: 18, 11: 20, 12: 22, 13: 24, 14: 26, 15: 28}


def tb_bits(modulation_order: int, code_rate: float, n_layers: int,
            n_prb: int) -> int:
    """Reference transport-block size for an explicit modulation and code rate.

    ``floor(DATA_RE_PER_PRB * n_prb * n_layers * modulation_order * code_rate)``,
    in floating point: the oracle for the exact integer :func:`tbs`.
    """
    if n_layers not in (1, 2):
        raise ValueError(f"n_layers must be 1 or 2, got {n_layers}")
    if n_prb < 1:
        raise ValueError(f"n_prb must be >= 1, got {n_prb}")
    if not 0 < code_rate <= 1:
        raise ValueError(f"code_rate must be in (0, 1], got {code_rate}")
    return math.floor(DATA_RE_PER_PRB * n_prb * n_layers * modulation_order * code_rate)


class TestMcsFromCqi:
    def test_full_map(self):
        assert {c: mcs_from_cqi(c) for c in range(16)} == MCS_FROM_CQI

    def test_low_cqis_collapse_to_mcs0(self):
        assert [mcs_from_cqi(c) for c in (0, 1, 2)] == [0, 0, 0]

    def test_monotone(self):
        vals = [mcs_from_cqi(c) for c in range(16)]
        assert vals == sorted(vals)

    def test_efficiency_never_exceeds_cqi(self):
        from nrlinksim.tables import load_cqi_table
        cqi_tab, mcs_tab = load_cqi_table(), load_mcs_table()
        for c in range(3, 16):
            assert mcs_tab[mcs_from_cqi(c)].efficiency <= cqi_tab[c].efficiency

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mcs_from_cqi(16)
        with pytest.raises(ValueError):
            mcs_from_cqi(-1)


class TestTbs:
    def test_reference_values(self):
        assert tbs(0, 1, 106) == 3875
        assert tbs(0, 2, 106) == 7751
        assert tbs(28, 1, 106) == 91852
        assert tbs(24, 2, 106) == 149599

    def test_tb_bits_trivial(self):
        assert tb_bits(2, 1.0, 1, 1) == 312

    def test_matches_tb_bits(self):
        for mcs in (0, 9, 17, 28):
            e = load_mcs_table()[mcs]
            for nu in (1, 2):
                assert tbs(mcs, nu, 51) == tb_bits(e.modulation_order,
                                                   e.rate_x1024 / 1024, nu, 51)

    def test_scaling(self):
        # Layers and PRBs multiply inside the floor, not after it.
        e = load_mcs_table()[5]
        prod = 156 * 10 * e.modulation_order * e.rate_x1024
        assert tbs(5, 1, 10) == prod // 1024
        assert tbs(5, 2, 10) == (2 * prod) // 1024
        assert tbs(5, 1, 20) == (2 * prod) // 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            tbs(29, 1, 106)
        with pytest.raises(ValueError):
            tbs(0, 3, 106)
        with pytest.raises(ValueError):
            tbs(0, 1, 0)
        with pytest.raises(ValueError):
            tb_bits(2, 0.0, 1, 1)


def effective_sinr_db(h, w, noise_var, caps) -> float:
    """Effective SINR of one flat block under precoder ``w``, capped per rank."""
    mats = np.asarray(h, dtype=complex)[None, None]
    return float(effective_sinrs_db(mats, w[None], [noise_var],
                                    float(caps[w.shape[1]]))[0])


def _precoder(ri, key=(0, 0, 0, 0)) -> np.ndarray:
    return precoder_for(PmiIndex(*key, rank=ri, ports=4))


class TestEffectiveSinr:
    CAPS = {1: 19.0, 2: 16.0}

    def test_below_cap_matches_mean(self):
        w = _precoder(ri=1)
        # per-layer linear SINR is exactly 5.0 at this noise level
        eff = effective_sinr_db(H_ORTHO, w, 0.1, self.CAPS)
        assert eff == pytest.approx(10 * math.log10(5.0), rel=1e-12)

    def test_noise_free_rank1_cap(self):
        w = _precoder(ri=1)
        assert effective_sinr_db(H_2X4_REF, w, 0.0, self.CAPS) == 19.0

    def test_noise_free_rank2_caps(self):
        w = _precoder(ri=2, key=(0, 0, 1, 0))
        assert effective_sinr_db(H_2X4_REF, w, 0.0, self.CAPS) == 16.0
        assert effective_sinr_db(H_2X4_REF, w, 0.0, {1: 19.0, 2: 14.0}) == 14.0

    def test_disabled_cap_saturates_at_reporting_ceiling(self):
        w = _precoder(ri=1)
        caps = {1: math.inf, 2: math.inf}
        assert effective_sinr_db(H_2X4_REF, w, 0.0, caps) == pytest.approx(40.0)

    def test_zero_channel_is_minus_inf(self):
        w = _precoder(ri=1)
        assert effective_sinr_db(np.zeros((2, 4)), w, 0.5, self.CAPS) == -math.inf


class TestBler:
    def test_threshold_values(self):
        assert decode_threshold_db(0) == pytest.approx(-6.535088257848301, rel=1e-12)
        assert decode_threshold_db(28) == pytest.approx(17.62788173330556, rel=1e-12)
        # threshold ordering follows the efficiency dip between 16 and 17
        assert decode_threshold_db(17) < decode_threshold_db(16)

    def test_midpoint(self):
        for mcs in (0, 10, 28):
            assert bler(decode_threshold_db(mcs), mcs) == 0.5

    def test_target_margin(self):
        # ~1.1 dB above threshold the error rate is just under 10%.
        assert bler(decode_threshold_db(7) + 1.1, 7) == pytest.approx(
            0.09975048911968522, rel=1e-12)

    def test_limits_and_stability(self):
        assert bler(math.inf, 0) == 0.0
        assert bler(-math.inf, 0) == 1.0
        assert bler(1e6, 5) == 0.0
        assert bler(-1e6, 5) == 1.0

    def test_monotone_decreasing(self):
        # Strict around the threshold; the saturated tails may flatline.
        th = decode_threshold_db(12)
        near = [bler(x, 12) for x in np.linspace(th - 12.0, th + 12.0, 97)]
        assert all(b < a for a, b in zip(near, near[1:]))
        wide = [bler(x, 12) for x in np.linspace(-30, 40, 141)]
        assert all(b <= a for a, b in zip(wide, wide[1:]))
        assert all(0.0 <= v <= 1.0 for v in wide)


def _noise_free_scenario(**extra):
    cfg = {
        "channel": {"type": "fixed", "matrix": H_2X4_REF},
        "noise": {"mode": "noise_free"},
        "n_slots": 50, "n_drops": 1,
        "sinr_cap_db": {"1": 19.0, "2": 16.0},
    }
    cfg.update(extra)
    return scenario_from_dict(cfg)


class TestSimulateDrop:
    def test_error_free_accounting_identity(self):
        sc = _noise_free_scenario(csi={"force_cqi": 4})
        stats = simulate_drop(sc, seed=3)
        want_tbs = tbs(mcs_from_cqi(4), 1, 106)
        assert stats.slots == 50
        assert stats.tb_attempts == 50 and stats.tb_acks == 50
        assert stats.delivered_bits == 50 * want_tbs
        assert stats.goodput_bps == want_tbs / SLOT_DURATION_S
        assert stats.mean_bler == 0.0
        assert stats.mean_mcs == mcs_from_cqi(4)
        assert stats.mean_ri == 1.0
        assert stats.mean_cqi == 4.0

    def test_mcs0_rate_reference(self):
        sc = _noise_free_scenario(csi={"force_cqi": 0})
        stats = simulate_drop(sc, seed=1)
        assert stats.goodput_bps == 3875 / 0.0005  # 7.75 Mbps
        assert stats.goodput_mbps == 7.75

    def test_duty_factor_scales_goodput(self):
        sc = _noise_free_scenario(csi={"force_cqi": 4}, dl_duty_factor=0.5)
        full = _noise_free_scenario(csi={"force_cqi": 4})
        assert (simulate_drop(sc, seed=3).goodput_bps
                == 0.5 * simulate_drop(full, seed=3).goodput_bps)

    def test_all_nack_channel(self):
        sc = scenario_from_dict({
            "channel": {"type": "fixed", "matrix": [[0, 0, 0, 0], [0, 0, 0, 0]]},
            "noise": {"mode": "variance", "variance": 0.1},
            "csi": {"force_cqi": 15},
            "n_slots": 8, "n_drops": 1,
        })
        stats = simulate_drop(sc, seed=0)
        assert stats.tb_attempts == 8
        assert stats.tb_acks == 0
        assert stats.delivered_bits == 0
        assert stats.goodput_bps == 0.0
        assert stats.mean_bler == 1.0

    def test_deterministic(self):
        sc = scenario_from_dict({
            "channel": {"type": "rice1", "coherence_slots": 5},
            "noise": {"mode": "snr", "snr_db": 6},
            "n_slots": 120, "n_drops": 1,
        })
        a = simulate_drop(sc, seed=11)
        b = simulate_drop(sc, seed=11)
        assert a == b
        assert a != simulate_drop(sc, seed=12)

    def test_delivered_equals_acked_blocks(self):
        # At a noise level giving a mid-range error rate, accounting still
        # balances: every ACK delivers exactly one transport block whose
        # size is pinned by the forced CQI and rank.
        sc = scenario_from_dict({
            "channel": {"type": "fixed", "matrix": H_2X4_REF},
            "noise": {"mode": "variance", "variance": 0.02},
            "csi": {"force_cqi": 13, "force_ri": 2},
            "n_slots": 400, "n_drops": 1,
        })
        stats = simulate_drop(sc, seed=5)
        assert stats.tb_attempts == 400
        assert 0 < stats.tb_acks < 400
        assert stats.delivered_bits == stats.tb_acks * tbs(mcs_from_cqi(13), 2, 106)
        assert stats.mean_bler == (400 - stats.tb_acks) / 400

    def test_harq_attempt_accounting(self):
        # One attempt per slot regardless of ACK/NACK/drop cycling.
        sc = scenario_from_dict({
            "channel": {"type": "fixed", "matrix": H_2X4_REF},
            "noise": {"mode": "variance", "variance": 0.3},
            "csi": {"force_cqi": 15},
            "n_slots": 97, "n_drops": 1, "max_harq_tx": 4,
        })
        stats = simulate_drop(sc, seed=2)
        assert stats.tb_attempts == 97

    def test_closed_loop_reference_channel(self):
        sc = scenario_from_dict({
            "channel": {"type": "fixed", "matrix": H_2X4_REF},
            "noise": {"mode": "variance", "variance": 0.1},
            "n_slots": 30, "n_drops": 1,
        })
        stats = simulate_drop(sc, seed=4)
        # The CSI report is (ri=1, sinr=12, cqi=10) for this channel/noise,
        # so every slot carries an MCS-18 single-layer block.
        assert stats.mean_ri == 1.0
        assert stats.mean_cqi == 10.0
        assert stats.mean_mcs == 18.0


class TestThroughputStats:
    def test_goodput_mbps(self):
        s = ThroughputStats(slots=10, tb_attempts=10, tb_acks=10,
                            delivered_bits=1000, goodput_bps=2.5e6,
                            mean_bler=0.0, mean_mcs=1.0, mean_ri=1.0,
                            mean_cqi=4.0)
        assert s.goodput_mbps == 2.5
