"""Unit tests for gNB link adaptation, PHY abstraction, and the drop loop."""

import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrlinksim import csi, link
from nrlinksim.channel import derive_seed
from nrlinksim.codebook import build_codebook, build_codebook_set
from nrlinksim.link import (DATA_RE_PER_PRB, SLOT_DURATION_S, ThroughputStats,
                            bler, decode_threshold_db, drop_channel, drop_csi,
                            effective_sinrs_db, mcs_from_cqi, run_harq, tbs)
from nrlinksim.scenario import parse_scenario, scenario_from_dict
from nrlinksim.tables import load_mcs_table

from conftest import scenario_path, simulate_drop

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


def effective_sinr_db(h, precoder, noise_var, caps) -> float:
    """Effective SINR of one flat block under ``precoder``, a (codebook, row)
    pair, capped per rank."""
    cb, row = precoder
    mats = np.asarray(h, dtype=complex)[None, None]
    return float(effective_sinrs_db(mats, cb, [row], [noise_var], float(caps[cb.rank]))[0])


def _row(cb, key) -> int:
    """The row of ``key`` in ``cb.keys``."""
    return cb.keys.tolist().index(list(key))


def _precoder(ri, key=(0, 0, 0, 0)):
    """The 4-port codebook of rank ``ri`` and the row of ``key`` in it."""
    cb = build_codebook(4, ri)
    return cb, _row(cb, key)


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

    @pytest.mark.parametrize("rank", [1, 2])
    def test_leading_axes_equal_calls_of_their_own(self, rank):
        # Three noise points of three full-band blocks, one of them zero:
        # each point's row has the bits of a call for that point alone.
        rng = np.random.default_rng(3)
        mats = rng.standard_normal((3, 5, 2, 4)) + 1j * rng.standard_normal((3, 5, 2, 4))
        mats[1] = 0.0
        cb = build_codebook(4, rank)
        keys = [(i, 0, rank - 1, i % 2) for i in range(3)]
        pmi = np.array([[_row(cb, k) for k in keys[p:] + keys[:p]] for p in range(3)])
        noise = np.array([[0.1, 0.0, 2.0], [0.0, 0.0, 0.0], [1e-3, 0.5, 0.0]])
        got = effective_sinrs_db(mats, cb, pmi, noise, self.CAPS[rank])
        assert got.shape == (3, 3)
        for p in range(3):
            want = effective_sinrs_db(mats, cb, pmi[p], noise[p], self.CAPS[rank])
            assert got[p].tobytes() == want.tobytes()
        assert got[:, 1].tolist() == [-math.inf] * 3

    @pytest.mark.numpy_bits
    @pytest.mark.parametrize("n_tx", [2, 4])
    def test_flat_rank1_pair_is_the_search_winner_bitwise(self, n_tx):
        # A flat block at rank 1 has one layer on one subcarrier, so its pair
        # SINR under the winning precoder is the search's winning ratio, and
        # with no cap its dB has the bits of 10 log10 of that ratio.
        rng = np.random.default_rng(17)
        mats = (rng.standard_normal((2250, 1, 2, n_tx))
                + 1j * rng.standard_normal((2250, 1, 2, n_tx)))
        noise_var = 10.0 ** rng.uniform(-3.0, 3.0, 2250)
        cb = build_codebook_set(n_tx)[(n_tx, 1)]
        winners, ratios = csi.select_pmi_blocks(mats, noise_var, cb)
        got = effective_sinrs_db(mats, cb, winners, noise_var, math.inf)
        want = np.array([10.0 * math.log10(r) for r in ratios.tolist()])
        assert np.count_nonzero(got != want) == 0


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


def _exp_mismatches(per_sign: int = 3) -> list[tuple[int, float]]:
    """(CQI, effective SINR) pairs whose BLER on an array, as ``run_harq``
    takes it with ``np.exp``, differs from the scalar :func:`bler`, which
    takes ``math.exp``: for each CQI, up to ``per_sign`` where the array
    value is above the scalar one and as many where it is below."""
    cases = []
    for cqi in (4, 9, 12, 15):
        mcs = mcs_from_cqi(cqi)
        th = decode_threshold_db(mcs)
        eff = th + np.linspace(-3.0, 3.0, 2001)
        x = 2.0 * (eff - th)
        e = np.exp(-np.abs(x))
        p_err = np.where(x > 0, e / (1.0 + e), 1.0 / (1.0 + e))
        scalar = np.array([bler(v, mcs) for v in eff.tolist()])
        for differ in (np.flatnonzero(p_err > scalar), np.flatnonzero(p_err < scalar)):
            picked = differ[::max(1, differ.size // per_sign)][:per_sign]
            cases += [(cqi, float(eff[i])) for i in picked]
    return cases


class TestAckDecisions:
    def test_draws_at_the_scalar_bler_decide_as_the_scalar(self):
        # Point i has one (CQI, SINR) case; slots 2i and 2i + 1 draw exactly
        # bler(case i) and one ulp below it.  Every point's ACKs must count
        # the draws u >= its scalar bler, also where the array BLER differs:
        # where it is above, the draw bler(case i) lies between the two.
        cases = _exp_mismatches()
        if not cases:
            pytest.skip("np.exp equals math.exp on every probed input here")
        p_err = [bler(eff, mcs_from_cqi(cqi)) for cqi, eff in cases]
        draws = np.array([u for b in p_err for u in (b, np.nextafter(b, 0.0))])
        sc = scenario_from_dict({
            "channel": {"type": "fixed", "matrix": H_2X4_REF},
            "noise": {"mode": "variance", "variance": 0.1},
            "n_slots": draws.size, "n_drops": 1, "max_harq_tx": 1,
        })
        csi = replace(drop_csi(sc, drop_channel(sc, seed=0)),
                      pair_eff_db=np.array([[eff] for _, eff in cases]))
        got = [s.tb_acks for s in run_harq(sc, csi, draws, np.array([[c] for c, _ in cases]))]
        assert got == [int(np.count_nonzero(draws >= b)) for b in p_err]
        assert all(draws[2 * i] >= b > draws[2 * i + 1] for i, b in enumerate(p_err))

    def test_a_redo_round_decides_as_the_scalar(self):
        # A report every slot and two attempts per block.  Point i owns
        # slots 4i..4i+3: slots 4i and 4i + 2 send new blocks that fail,
        # and slots 4i + 1 and 4i + 3 resend them under the older report,
        # with draws exactly bler(case i) and one ulp below it.  Every
        # decision under a slot's own report fails, so both resends are
        # settled only in a redo round, against the scalar bler.
        cases = _exp_mismatches()
        if not cases:
            pytest.skip("np.exp equals math.exp on every probed input here")
        p_err = [bler(eff, mcs_from_cqi(cqi)) for cqi, eff in cases]
        draws = np.array([u for b in p_err for u in (0.0, b, 0.0, np.nextafter(b, 0.0))])
        sc = scenario_from_dict({
            "channel": {"type": "rice1", "coherence_slots": 1}, "n_tx": 2,
            "noise": {"mode": "variance", "variance": 0.1},
            "n_slots": draws.size, "n_drops": 1, "csi_period": 1, "max_harq_tx": 2,
        })
        chan = drop_channel(sc, seed=0)
        resent = chan.pair_block == chan.pair_report + 1
        eff = np.full((len(cases), chan.pair_report.size), -np.inf)
        for i, (_, case_eff) in enumerate(cases):
            eff[i, resent & (chan.pair_report // 4 == i)] = case_eff
        csi = replace(drop_csi(sc, chan), pair_eff_db=eff)
        stats = run_harq(sc, csi, draws, np.array([[cqi] for cqi, _ in cases]))
        assert [s.tb_acks for s in stats] == [1] * len(cases)


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


def dropped_by_recurrence(row, max_tx: int) -> int:
    """Blocks given up in one row of ACKs, slot by slot: a block's attempt
    count restarts after each ACK and after each block given up."""
    dropped = tries = 0
    for ack in row:
        tries += 1
        if ack:
            tries = 0
        elif tries == max_tx:
            dropped, tries = dropped + 1, 0
    return dropped


@st.composite
def ack_matrices(draw):
    """At least two rows of ACKs, some all ACK or all NACK, and a
    ``max_harq_tx`` from 1 to 3 past the row length."""
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.one_of(st.just([True] * n), st.just([False] * n),
                                   st.lists(st.booleans(), min_size=n, max_size=n)),
                         min_size=2, max_size=6))
    return np.array(rows), draw(st.integers(1, n + 3))


@pytest.mark.numpy_bits
@settings(max_examples=300, deadline=None)
@given(case=ack_matrices())
# A row that ends in NACKs before one that starts with them: a run joined
# across the rows would give up a block neither row gives up.
@example(case=(np.array([[True, False, False], [False, True, True]]), 3))
@example(case=(np.array([[False] * 4] * 3), 3))
def test_nack_runs_count_drops_as_the_recurrence(case):
    acked, max_tx = case
    n_acks, dropped = link._ack_runs(acked, max_tx)
    assert n_acks.tolist() == np.count_nonzero(acked, axis=1).tolist()
    assert dropped.tolist() == [dropped_by_recurrence(row, max_tx) for row in acked.tolist()]


class TestThroughputStats:
    def test_goodput_mbps(self):
        s = ThroughputStats(slots=10, tb_attempts=10, tb_acks=10, tb_dropped=0,
                            delivered_bits=1000, goodput_bps=2.5e6,
                            mean_bler=0.0, mean_mcs=1.0, mean_ri=1.0,
                            mean_cqi=4.0)
        assert s.goodput_mbps == 2.5


@pytest.mark.parametrize("name", ["snr_sweep_fixed_2x2.json", "snr_sweep_fixed_2x4.json",
                                  "snr_sweep_rice1_2x2.json", "snr_sweep_rice1_2x4.json"])
def test_one_pair_per_pair_pass_changes_nothing(name, monkeypatch):
    # Every pair of a rank in one pair pass, at every noise point, then one
    # pair per pass: the same bytes.
    scenario = parse_scenario(scenario_path(name))
    chan = drop_channel(scenario, derive_seed(scenario.seed, 0))
    calls = []

    def counted(mats, cb, pmi, noise_var, cap_db):
        assert pmi.shape == noise_var.shape == (len(scenario.noise_vars(chan.p_rx)), len(mats))
        calls.append((cb.rank, len(mats)))
        return effective_sinrs_db(mats, cb, pmi, noise_var, cap_db)

    monkeypatch.setattr(link, "effective_sinrs_db", counted)
    runs = []
    for budget in (1 << 40, 1):
        monkeypatch.setattr(csi, "BATCH_ELEMS", budget)
        calls.clear()
        runs.append(drop_csi(scenario, chan))
        pairs = Counter(runs[-1].reports.ri[chan.pair_report].tolist())
        if budget > 1:
            assert calls == [(rank, pairs[rank]) for rank in sorted(pairs)]
        else:
            assert calls == [(rank, 1) for rank in sorted(pairs) for _ in range(pairs[rank])]
    assert len(runs[0].pair_eff_db) > 1
    for got, want in zip(runs[1].reports, runs[0].reports):
        assert np.array_equal(got, want)
    assert runs[1].pair_eff_db.tobytes() == runs[0].pair_eff_db.tobytes()


def _esterr_scenario(n_slots: int):
    """Rician 2x4, full-band estimation error, three SNR points, one report
    per 10 slots: at 2000 slots, the shape of the esterr benchmark drop."""
    return scenario_from_dict({
        "n_tx": 4, "n_prb": 106, "n_slots": n_slots, "csi_period": 10,
        "est_error_var": 0.01,
        "channel": {"type": "rice1", "k_factor": 1.0, "coherence_slots": 10},
        "noise": {"mode": "snr_sweep", "snr_db_list": [0, 10, 20]}})


class TestRandomStreams:
    def test_generators_per_drop_do_not_grow_with_blocks(self, monkeypatch):
        counts = Counter()
        for name in ("default_rng", "SeedSequence", "PCG64"):
            def counted(*args, _real=getattr(np.random, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.random, name, counted)

        def generators(n_slots):
            counts.clear()
            scenario = _esterr_scenario(n_slots)
            drop_csi(scenario, drop_channel(scenario, 7))
            return dict(counts)

        assert generators(20) == generators(400)

    @pytest.mark.numpy_bits
    def test_estimate_streams_derived_once_per_drop(self, monkeypatch):
        # The drop's streams are derived once.  Each estimate chunk, as many
        # blocks as keep its normals within BATCH_ELEMS, is estimated, voted
        # and quantized once; its PMI searches take blocks of one rank, no
        # more than keep the search's largest temporary within BATCH_ELEMS.
        scenario = _esterr_scenario(2000)
        n_eval, n_tx, n_points = scenario.n_prb, scenario.n_tx, 3
        chunks = math.ceil(200 / (csi.BATCH_ELEMS // (4 * n_eval * n_tx)))
        calls, searches = Counter(), []
        vote = csi.compute_ri_blocks
        for module, name in ((link, "estimate_streams"), (link, "estimate_blocks"),
                             (csi, "compute_ri_blocks"), (csi, "lin_to_int_db")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        def search(mats, noise_var, cb, scratch=None, _real=csi.select_pmi_blocks):
            searches.append((cb, vote(mats, scenario.csi)))
            return _real(mats, noise_var, cb, scratch)
        monkeypatch.setattr(csi, "select_pmi_blocks", search)
        reports = drop_csi(scenario, drop_channel(scenario, 7)).reports
        assert reports.ri.size == 200 and 1 < chunks < 200
        assert calls == {"estimate_streams": 1, "estimate_blocks": chunks,
                         "compute_ri_blocks": chunks, "lin_to_int_db": chunks}
        assert {cb.rank for cb, _ in searches} == {1, 2}
        for cb, ri in searches:
            assert np.all(ri == cb.rank)
            largest = ri.size * n_eval * n_points * len(cb.precoders) * cb.rank
            assert largest <= csi.BATCH_ELEMS
        assert sum(ri.size for _, ri in searches) == 200
        assert len(searches) < 200

    def test_esterr_drop_csi_memory(self):
        # One drop's CSI at the esterr benchmark's shape (200 reports of 106
        # subcarriers, three points) peaks at 2.42 MB of NumPy temporaries;
        # an estimate chunk or search that grew would show here.
        scenario = _esterr_scenario(2000)
        chan = drop_channel(scenario, derive_seed(3, 0))
        drop_csi(scenario, chan)
        tracemalloc.start()
        drop_csi(scenario, chan)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2.6e6


