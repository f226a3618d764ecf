"""Property tests of the drop engine against the slot-by-slot reference loop.

``oracle_drop`` is the closed-loop drop as one loop over slots: it draws
each block's channel, noise level and estimate when the block starts,
one block at a time, makes a report on reporting slots and evaluates
every transport block's effective SINR in the slot that sends it.  Its
reports and SINRs come from the oracles in ``conftest``, so it shares no
CSI code with the engine.  The engine in ``nrlinksim.link`` reorders
that work (all blocks of a drop at once, CSI shared across sweep
points), so its statistics must equal the loop's exactly.  The same
random scenarios check that one CSI pass over every SNR point equals a
pass per point and, with CQI and rank forced, the HARQ accounting.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrlinksim import csi as csi_module
from nrlinksim import link
from nrlinksim.channel import derive_seed
from nrlinksim.codebook import build_codebook_set
from nrlinksim.link import (_ACK_STREAM, SLOT_DURATION_S, ThroughputStats, bler,
                            drop_channel, drop_csi, mcs_from_cqi, tbs)
from nrlinksim.scenario import scenario_from_dict
from nrlinksim.sweeps import run_sweep_cqi, run_sweep_snr

from conftest import (at_snr, drop_stats, eff_sinrs_db_oracle, estimate_blocks_oracle,
                      pair_eff_db_oracle, report_oracle, rice1_blocks_oracle, simulate_drop,
                      with_forced_cqi)


def block_channel(scenario, seed: int, block: int) -> np.ndarray:
    """True channel of one coherence block, shape (1, 2, n_tx)."""
    if scenario.channel.kind == "fixed":
        return np.asarray(scenario.channel.matrix, dtype=np.complex128)[None]
    return rice1_blocks_oracle(seed, scenario.channel.k_factor, scenario.n_tx, [block])


def oracle_drop(scenario, seed: int, u=None) -> ThroughputStats:
    """One closed-loop drop, slot by slot, against the drop's own ACK draws
    or, if given, the draws ``u``, one per slot."""
    codebooks = build_codebook_set(scenario.n_tx)
    ack_rng = np.random.default_rng([_ACK_STREAM, seed])
    draw = ack_rng.random if u is None else iter(u.tolist()).__next__
    coh = scenario.coherence_slots

    cur_block = -1
    h = noise_var = est = None
    grant = None
    report_block = -1

    tb_grant = None
    tb_tries = 0
    attempts = acks = dropped = 0
    delivered = 0
    sum_mcs = sum_ri = sum_cqi = 0

    for slot in range(scenario.n_slots):
        block = slot // coh
        if block != cur_block:
            cur_block = block
            h = block_channel(scenario, seed, block)
            est = estimate_blocks_oracle(h, scenario.est_error_var, seed, [block],
                                         scenario.n_prb)
            # Received power: the mean of |h|^2 over the block's one matrix.
            p_rx = np.sum(np.abs(h) ** 2) / h.size
            noise_var = scenario.noise_vars(np.array([p_rx]))[0]
        if slot % scenario.csi_period == 0 and report_block != block:
            ri, pmi, cqi = report_oracle(est[0], float(noise_var[0]), scenario.csi, codebooks)
            mcs = mcs_from_cqi(cqi)
            # (layers, codebook, precoder row, MCS, CQI, transport-block bits)
            grant = (ri, codebooks[(scenario.n_tx, ri)], pmi, mcs, cqi,
                     tbs(mcs, ri, scenario.n_prb))
            report_block = block

        if tb_grant is None:
            tb_grant = grant
            tb_tries = 0

        layers, cb, pmi, mcs, cqi, bits = tb_grant
        cap = float(scenario.sinr_cap_db[layers])
        eff = eff_sinrs_db_oracle(h[:, None], cb, [pmi], noise_var, cap)[0]
        p_err = bler(eff, mcs)

        attempts += 1
        tb_tries += 1
        sum_mcs += mcs
        sum_ri += layers
        sum_cqi += cqi
        if draw() >= p_err:
            acks += 1
            delivered += bits
            tb_grant = None
        elif tb_tries >= scenario.max_harq_tx:
            dropped += 1
            tb_grant = None

    n = scenario.n_slots
    goodput = delivered / n / SLOT_DURATION_S * scenario.dl_duty_factor
    return ThroughputStats(
        slots=n,
        tb_attempts=attempts,
        tb_acks=acks,
        tb_dropped=dropped,
        delivered_bits=delivered,
        goodput_bps=goodput,
        mean_bler=(attempts - acks) / attempts if attempts else 0.0,
        mean_mcs=sum_mcs / n,
        mean_ri=sum_ri / n,
        mean_cqi=sum_cqi / n,
    )


@st.composite
def scenario_docs(draw):
    """Small scenario documents spanning every channel, noise and CSI option."""
    n_tx = draw(st.sampled_from([2, 4]))
    if draw(st.booleans()):
        entry = st.one_of(st.just(0.0), st.floats(-2.0, -0.01), st.floats(0.01, 2.0))
        matrix = [[[draw(entry), draw(entry)] for _ in range(n_tx)] for _ in range(2)]
        matrix[0][0][0] = draw(st.floats(0.01, 2.0))  # SNR modes need power
        channel = {"type": "fixed", "matrix": matrix}
    else:
        channel = {"type": "rice1", "k_factor": draw(st.sampled_from([0.0, 1.0, 4.0])),
                   "coherence_slots": draw(st.integers(1, 7))}
    noise = draw(st.sampled_from([
        {"mode": "noise_free"},
        {"mode": "snr", "snr_db": draw(st.floats(-5.0, 30.0))},
        {"mode": "variance", "variance": draw(st.floats(0.01, 2.0))},
    ]))
    csi = {}
    if draw(st.booleans()):
        csi["force_ri"] = draw(st.sampled_from([1, 2]))
    n_slots = draw(st.integers(1, 70))
    return {
        "channel": channel, "n_tx": n_tx, "noise": noise, "csi": csi,
        "n_prb": draw(st.sampled_from([1, 3, 106])),
        "n_slots": n_slots,
        "csi_period": draw(st.integers(1, 9)),
        # Beyond n_slots no block is ever dropped, so one block can follow
        # its report to the end of the drop.
        "max_harq_tx": draw(st.one_of(st.integers(1, 5), st.integers(1, n_slots + 3))),
        "est_error_var": draw(st.sampled_from([0.0, 0.0, 0.01, 0.3])),
        "n_drops": 1,
        "seed": draw(st.integers(0, 2 ** 32)),
    }


# Retransmissions cross blocks (coherence 2 < 4 attempts), most blocks have
# no report of their own (period 3 vs coherence 2), and the drop ends
# inside a block (25 slots).
STALE_GRANTS = {
    "channel": {"type": "rice1", "k_factor": 1.0, "coherence_slots": 2},
    "n_tx": 4, "noise": {"mode": "snr", "snr_db": 6.0}, "csi": {},
    "n_prb": 106, "n_slots": 25, "csi_period": 3, "max_harq_tx": 4,
    "est_error_var": 0.01, "n_drops": 1, "seed": 5,
}

# A report every slot on a channel that changes every slot, and one
# transport block may be resent to the end of the drop: it can follow a
# report many reports old.
LONG_HARQ = dict(STALE_GRANTS, channel={"type": "rice1", "k_factor": 0.0, "coherence_slots": 1},
                 noise={"mode": "snr", "snr_db": 2.0}, csi_period=1, n_slots=40,
                 max_harq_tx=43, est_error_var=0.0, seed=8)

# The same channel and reports with up to 16 attempts per block over 300
# slots: run_harq needs many rounds to settle which report each slot's
# block follows (23 redo rounds at these SNRs).
MANY_ROUNDS = dict(LONG_HARQ, n_slots=300, max_harq_tx=16, seed=1)
MANY_ROUNDS_SNRS = [-3.0, 3.0, 12.0]


@settings(max_examples=60, deadline=None)
@given(doc=scenario_docs())
@example(doc=STALE_GRANTS)
@example(doc=dict(STALE_GRANTS, n_tx=2, csi={"force_ri": 2},
                  noise={"mode": "variance", "variance": 0.05}))
@example(doc=LONG_HARQ)
@example(doc=dict(LONG_HARQ, max_harq_tx=40))
@example(doc=dict(STALE_GRANTS, max_harq_tx=1))
@example(doc=dict(MANY_ROUNDS, noise={"mode": "snr", "snr_db": MANY_ROUNDS_SNRS[1]}))
@example(doc=dict(STALE_GRANTS, channel={"type": "fixed", "matrix": [[1.0, 0.5], [0.5, 1.0]]},
                  n_tx=2, n_slots=40, est_error_var=0.0))
def test_drop_and_cqi_sweep_match_oracle(doc):
    scenario = scenario_from_dict(doc)
    seed = derive_seed(scenario.seed, 0)
    assert simulate_drop(scenario, seed) == oracle_drop(scenario, seed)
    for row in run_sweep_cqi(scenario):
        assert row.drops == (oracle_drop(with_forced_cqi(scenario, row.cqi), seed),)
    csi = drop_csi(scenario, drop_channel(scenario, seed))
    if csi.chan.pair_report.size == 1:
        # One error probability per CQI point: plant it, and the double one
        # ulp below it, in the draws at two slots no other point plants at.
        rng = np.random.default_rng(scenario.seed)
        slots, cqis = rng.permutation(scenario.n_slots), rng.permutation(16)
        u = link.ack_draws(seed, scenario.n_slots)
        for c, at, below in zip(cqis.tolist(), slots[0::2], slots[1::2]):
            u[at] = bler(float(csi.pair_eff_db[0, 0]), mcs_from_cqi(c))
            u[below] = np.nextafter(u[at], 0.0)
        assert link.run_harq(scenario, csi, u, np.arange(16)[:, None]) == [
            oracle_drop(with_forced_cqi(scenario, c), seed, u) for c in range(16)]


@settings(max_examples=25, deadline=None)
@given(doc=scenario_docs(), snrs=st.lists(st.floats(-5.0, 30.0), min_size=1, max_size=3))
@example(doc=STALE_GRANTS, snrs=[0.0, 12.5])
@example(doc=LONG_HARQ, snrs=[-5.0, 2.0, 9.0])
@example(doc=MANY_ROUNDS, snrs=MANY_ROUNDS_SNRS)
def test_snr_sweep_matches_oracle(doc, snrs):
    scenario = scenario_from_dict(dict(doc, noise={"mode": "snr_sweep",
                                                   "snr_db_list": snrs}))
    seed = derive_seed(scenario.seed, 0)
    for snr, row in zip(snrs, run_sweep_snr(scenario)):
        assert row.drops == (oracle_drop(at_snr(scenario, snr), seed),)


@st.composite
def fixed_sweeps(draw):
    """A sweep command with a fixed 2x2 or 2x4 scenario, estimated without
    error, at a noise mode that command takes, over several drops."""
    n_tx = draw(st.sampled_from([2, 4]))
    entry = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    matrix = [[[draw(entry), draw(entry)] for _ in range(n_tx)] for _ in range(2)]
    matrix[0][0][0] = draw(st.floats(0.01, 2.0))  # SNR modes need power
    command = draw(st.sampled_from(["sweep-cqi", "sweep-snr"]))
    if command == "sweep-snr":
        noise = {"mode": "snr_sweep",
                 "snr_db_list": draw(st.lists(st.floats(-5.0, 30.0), min_size=1, max_size=3))}
    else:
        noise = draw(st.sampled_from([
            {"mode": "noise_free"},
            {"mode": "snr", "snr_db": draw(st.floats(-5.0, 30.0))},
            {"mode": "variance", "variance": draw(st.floats(0.01, 2.0))},
        ]))
    n_slots = draw(st.integers(1, 60))
    return command, scenario_from_dict({
        "channel": {"type": "fixed", "matrix": matrix}, "noise": noise,
        "n_prb": draw(st.sampled_from([1, 106])), "n_slots": n_slots,
        "n_drops": draw(st.integers(1, 4)), "csi_period": draw(st.integers(1, 9)),
        "max_harq_tx": draw(st.one_of(st.integers(1, 5), st.integers(1, n_slots + 3))),
        "seed": draw(st.integers(0, 2 ** 32)),
    })


@settings(max_examples=40, deadline=None)
@given(sweep=fixed_sweeps())
def test_shared_csi_sweep_matches_per_drop_composition(sweep):
    # A sweep computes a fixed channel's CSI once; every drop must still
    # equal the three phases run on that drop alone.
    command, scenario = sweep
    assert scenario.drop_invariant_csi
    seeds = [derive_seed(scenario.seed, d) for d in range(scenario.n_drops)]
    if command == "sweep-snr":
        rows = run_sweep_snr(scenario)
        for d, seed in enumerate(seeds):
            assert [row.drops[d] for row in rows] == drop_stats(scenario, seed)
    else:
        for row in run_sweep_cqi(scenario):
            forced = with_forced_cqi(scenario, row.cqi)
            assert row.drops == tuple(simulate_drop(forced, seed) for seed in seeds)


def test_shared_csi_drops_match_oracle():
    # Three drops of a fixed 2x2 channel share their CSI but not their ACK
    # draws: each equals the slot-by-slot loop at its own seed.  At 4 dB the
    # forced CQI fails often, so the drops differ and retransmit.
    scenario = scenario_from_dict({
        "channel": {"type": "fixed", "matrix": [[1.0, 0.5], [0.5, 1.0]]},
        "noise": {"mode": "snr_sweep", "snr_db_list": [4.0, 8.0]}, "csi": {"force_cqi": 11},
        "n_slots": 40, "n_drops": 3, "csi_period": 4, "max_harq_tx": 3, "seed": 6,
    })
    seeds = [derive_seed(scenario.seed, d) for d in range(scenario.n_drops)]
    rows = run_sweep_snr(scenario)
    for snr, row in zip(scenario.noise.snr_db_list, rows):
        assert row.drops == tuple(oracle_drop(at_snr(scenario, snr), s) for s in seeds)
    assert len(set(rows[0].drops)) == len(seeds)
    assert all(d.tb_dropped > 0 for d in rows[0].drops)


def _count_calls(monkeypatch, name: str, arg: int) -> list:
    """Replace ``link.<name>`` by a wrapper that records the length of each
    call's argument ``arg``, and return the record."""
    calls, real = [], getattr(link, name)

    def counted(*args):
        calls.append(len(args[arg]))
        return real(*args)

    monkeypatch.setattr(link, name, counted)
    return calls


def test_harq_rounds_match_oracle_point_by_point(monkeypatch):
    # Each redo round takes the first-send slots of the points still
    # changing once more: this drop must need several rounds, and every
    # SNR point must still equal the slot-by-slot loop.
    passes = _count_calls(monkeypatch, "_first_sent", 0)
    scenario = scenario_from_dict(dict(MANY_ROUNDS, noise={"mode": "snr_sweep",
                                                          "snr_db_list": MANY_ROUNDS_SNRS}))
    rows = run_sweep_snr(scenario)
    assert len(passes) > 3 and passes[0] == len(MANY_ROUNDS_SNRS)
    seed = derive_seed(scenario.seed, 0)
    for snr, row in zip(MANY_ROUNDS_SNRS, rows):
        assert row.drops == (oracle_drop(at_snr(scenario, snr), seed),)


# A fixed 2x2 channel whose forced CQI fails often at the lower SNR points,
# so blocks are retransmitted and given up.
FIXED_2X2 = {
    "channel": {"type": "fixed", "matrix": [[1.0, 0.5], [0.5, 1.0]]},
    "noise": {"mode": "snr_sweep", "snr_db_list": [4.0, 8.0]}, "csi": {"force_cqi": 11},
    "n_slots": 300, "n_drops": 2, "csi_period": 10, "max_harq_tx": 3, "seed": 3,
}


def test_one_report_drop_runs_no_redo_round(monkeypatch):
    # With one report every block follows it, so the first decisions are
    # final: a fixed sweep, and a Rician drop whose one report serves five
    # blocks, never take first-send slots, and equal the slot-by-slot loop.
    first_sent = _count_calls(monkeypatch, "_first_sent", 0)
    fixed = scenario_from_dict(FIXED_2X2)
    rice = scenario_from_dict(dict(STALE_GRANTS, csi_period=9, n_slots=9, noise={
        "mode": "snr_sweep", "snr_db_list": [-3.0, 6.0, 20.0]}))
    for scenario in (fixed, rice):
        seeds = [derive_seed(scenario.seed, d) for d in range(scenario.n_drops)]
        assert drop_channel(scenario, seeds[0]).report_block.size == 1
        rows = run_sweep_snr(scenario)
        for snr, row in zip(scenario.noise.snr_db_list, rows):
            assert row.drops == tuple(oracle_drop(at_snr(scenario, snr), s) for s in seeds)
    assert drop_channel(rice, 0).h.shape[0] == 5
    assert all(d.tb_dropped > 0 for d in run_sweep_snr(fixed)[0].drops)
    assert first_sent == []


def test_only_a_one_pair_drop_skips_the_slot_gather(monkeypatch):
    # A fixed sweep's drops have one (report, block) pair each and decide
    # every point against one error probability, never through _acks; a
    # drop whose one report serves five blocks still gathers per slot.
    gathers = _count_calls(monkeypatch, "_acks", 0)
    run_sweep_snr(scenario_from_dict(FIXED_2X2))
    assert gathers == []
    run_sweep_cqi(scenario_from_dict(dict(STALE_GRANTS, csi_period=9, n_slots=9)))
    assert gathers == [9]


def test_long_fixed_drop_one_point_per_pass_matches_oracle(monkeypatch):
    # 20,000 slots, one SNR point per HARQ pass: every point still equals
    # the slot-by-slot loop, blocks given up included.
    passes = _count_calls(monkeypatch, "_point_stats", 1)
    monkeypatch.setattr(csi_module, "BATCH_ELEMS", 1)
    scenario = scenario_from_dict(dict(FIXED_2X2, n_slots=20_000, n_drops=1))
    seed = derive_seed(scenario.seed, 0)
    rows = run_sweep_snr(scenario)
    assert passes == [1, 1]
    for snr, row in zip(scenario.noise.snr_db_list, rows):
        assert row.drops == (oracle_drop(at_snr(scenario, snr), seed),)
    assert rows[0].drops[0].tb_dropped > 0


@settings(max_examples=40, deadline=None)
@given(doc=scenario_docs(), snrs=st.lists(st.floats(-5.0, 30.0), min_size=1, max_size=4))
@example(doc=STALE_GRANTS, snrs=[0.0, 12.5, 30.0])
@example(doc=dict(STALE_GRANTS, n_tx=2, est_error_var=0.3), snrs=[-5.0, 3.0, 8.0, 25.0])
# At 3080 dB the noise variance of this faint channel underflows to 0: one
# noise-free point among noisy ones.
@example(doc=dict(STALE_GRANTS, n_tx=2, est_error_var=0.0,
                  channel={"type": "fixed", "matrix": [[1e-9, 5e-10], [0, 1e-9]]}),
         snrs=[10.0, 3080.0])
def test_one_csi_pass_serves_every_snr_point(doc, snrs):
    # Each point of one pass over the sweep equals a pass at that point alone.
    sweep = scenario_from_dict(dict(doc, noise={"mode": "snr_sweep", "snr_db_list": snrs}))
    chan = drop_channel(sweep, derive_seed(sweep.seed, 0))
    swept = drop_csi(sweep, chan)
    assert swept.pair_eff_db.shape == (len(snrs), chan.pair_report.size)
    for point, snr in enumerate(snrs):
        alone = drop_csi(at_snr(sweep, snr), chan)
        assert np.array_equal(swept.reports.ri, alone.reports.ri)
        for got, want in zip(swept.reports[1:], alone.reports[1:]):
            assert got.shape[0] == len(snrs) and np.array_equal(got[point:point + 1], want)
        assert np.array_equal(swept.pair_eff_db[point:point + 1], alone.pair_eff_db)


@st.composite
def pair_pass_docs(draw):
    """Scenario documents at one of the noise modes whose pair SINRs can
    reach -inf (a zero channel) or mix noise-free and noisy points."""
    doc = draw(scenario_docs())
    noise = draw(st.sampled_from([
        {"mode": "noise_free"},
        {"mode": "variance", "variance": draw(st.floats(0.01, 2.0))},
        {"mode": "snr_sweep",
         "snr_db_list": draw(st.lists(st.floats(-5.0, 30.0), min_size=1, max_size=6))},
    ]))
    if doc["channel"]["type"] == "fixed" and noise["mode"] != "snr_sweep" and draw(st.booleans()):
        doc["channel"] = {"type": "fixed", "matrix": [[[0.0, 0.0]] * doc["n_tx"]] * 2}
    return dict(doc, noise=noise)


@pytest.mark.numpy_bits
@settings(max_examples=80, deadline=None)
@given(doc=pair_pass_docs())
@example(doc=dict(STALE_GRANTS, noise={"mode": "snr_sweep", "snr_db_list": [0.0, 9.0, 30.0]}))
@example(doc=dict(STALE_GRANTS, n_tx=2, csi={"force_ri": 2}, noise={"mode": "noise_free"},
                  channel={"type": "fixed", "matrix": [[[0.0, 0.0]] * 2] * 2}))
@example(doc=dict(STALE_GRANTS, csi={"force_ri": 1}, noise={"mode": "variance", "variance": 0.5},
                  channel={"type": "fixed", "matrix": [[[0.0, 0.0]] * 4] * 2}))
# At 3080 dB the noise variance of this faint channel underflows to 0: one
# noise-free point in the same pass as noisy ones.
@example(doc=dict(STALE_GRANTS, n_tx=2, est_error_var=0.0,
                  channel={"type": "fixed", "matrix": [[1e-9, 5e-10], [0, 1e-9]]},
                  noise={"mode": "snr_sweep", "snr_db_list": [10.0, 3080.0, -5.0]}))
def test_pair_pass_matches_per_point_oracle(doc):
    # All noise points in one call per rank give the bits of one call per
    # (point, rank), -inf included.
    scenario = scenario_from_dict(doc)
    chan = drop_channel(scenario, derive_seed(scenario.seed, 0))
    csi = drop_csi(scenario, chan)
    want = pair_eff_db_oracle(scenario, chan, csi.reports)
    assert csi.pair_eff_db.shape == want.shape
    assert csi.pair_eff_db.tobytes() == want.tobytes()


def _chunk_scenario(n_tx, force_ri, snrs, est_error_var, n_prb, coherence, csi_period,
                    n_slots, seed):
    return scenario_from_dict({
        "channel": {"type": "rice1", "k_factor": 1.0, "coherence_slots": coherence},
        "n_tx": n_tx, "n_prb": n_prb, "n_slots": n_slots, "csi_period": csi_period,
        "est_error_var": est_error_var, "csi": {"force_ri": force_ri}, "seed": seed,
        "noise": {"mode": "snr_sweep", "snr_db_list": snrs}})


def _mid_budget(scenario) -> int:
    """A ``csi.BATCH_ELEMS`` at which an estimate chunk holds 12 blocks.  At 4
    ports, full band and three points, a rank-1 search then takes 2 of them
    and a rank-2 search 1."""
    return 12 * 4 * scenario.n_prb * scenario.n_tx


# Both ranks in one estimate chunk at the middle budget, each in several searches.
MIXED_RANK_CHUNK = dict(n_tx=4, force_ri=None, snrs=[0.0, 10.0, 20.0], est_error_var=0.01,
                        n_prb=106, coherence=1, csi_period=1, n_slots=24, seed=5)


@pytest.mark.numpy_bits
@settings(max_examples=30, deadline=None)
@given(n_tx=st.sampled_from([2, 4]), force_ri=st.sampled_from([None, 1, 2]),
       snrs=st.lists(st.floats(-5.0, 30.0), min_size=1, max_size=5),
       est_error_var=st.sampled_from([0.01, 0.3]), n_prb=st.sampled_from([1, 3, 106]),
       coherence=st.integers(1, 7), csi_period=st.integers(1, 9), n_slots=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32))
@example(n_tx=4, force_ri=None, snrs=[0.0, 10.0, 20.0], est_error_var=0.01, n_prb=106,
         coherence=10, csi_period=10, n_slots=200, seed=3)
@example(**MIXED_RANK_CHUNK)
def test_chunk_size_changes_no_csi_byte(n_tx, force_ri, snrs, est_error_var, n_prb,
                                        coherence, csi_period, n_slots, seed):
    # One reporting block per estimate chunk and per search (and one noise
    # point per pair pass), a middle budget, then every block (and point) in
    # one call: the same bytes.
    scenario = _chunk_scenario(n_tx, force_ri, snrs, est_error_var, n_prb, coherence,
                               csi_period, n_slots, seed)
    chan = drop_channel(scenario, derive_seed(scenario.seed, 0))
    runs = []
    for budget in (1, _mid_budget(scenario), 1 << 60):
        with mock.patch.object(csi_module, "BATCH_ELEMS", budget):
            runs.append(drop_csi(scenario, chan))
    whole = runs[-1]
    for run in runs[:-1]:
        for got, want in zip(run.reports, whole.reports):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert run.pair_eff_db.tobytes() == whole.pair_eff_db.tobytes()


@pytest.mark.numpy_bits
def test_mid_budget_chunk_searches_each_rank_in_parts():
    # At the middle budget of test_chunk_size_changes_no_csi_byte, which
    # runs this scenario too, one estimate chunk votes both ranks, and each
    # rank's blocks take several searches of that rank alone.
    scenario = _chunk_scenario(**MIXED_RANK_CHUNK)
    vote, search = csi_module.compute_ri_blocks, csi_module.select_pmi_blocks
    chunks = []

    def voted(mats, cfg):
        chunks.append({"ri": vote(mats, cfg), 1: [], 2: []})
        return chunks[-1]["ri"]

    def searched(mats, noise_var, cb, scratch=None):
        chunks[-1][cb.rank].append(vote(mats, scenario.csi))
        return search(mats, noise_var, cb, scratch)

    with mock.patch.object(csi_module, "BATCH_ELEMS", _mid_budget(scenario)), \
            mock.patch.object(csi_module, "compute_ri_blocks", voted), \
            mock.patch.object(csi_module, "select_pmi_blocks", searched):
        drop_csi(scenario, drop_channel(scenario, derive_seed(scenario.seed, 0)))
    assert [chunk["ri"].size for chunk in chunks] == [12, 12]
    mixed = [chunk for chunk in chunks if set(chunk["ri"].tolist()) == {1, 2}]
    assert any(len(chunk[1]) > 1 and len(chunk[2]) > 1 for chunk in mixed)
    for chunk in chunks:
        for rank in (1, 2):
            assert all(np.all(ri == rank) for ri in chunk[rank])
            assert sum(ri.size for ri in chunk[rank]) == np.count_nonzero(chunk["ri"] == rank)


@settings(max_examples=60, deadline=None)
@given(doc=scenario_docs(), ri=st.sampled_from([1, 2]), cqi=st.integers(0, 15))
def test_harq_accounting_with_forced_cqi_and_ri(doc, ri, cqi):
    # One attempt per slot, and every ACK delivers one transport block
    # whose size the forced CQI and rank pin.
    scenario = scenario_from_dict(dict(doc, csi={"force_ri": ri, "force_cqi": cqi}))
    stats = simulate_drop(scenario, derive_seed(scenario.seed, 0))
    mcs = mcs_from_cqi(cqi)
    assert stats.tb_attempts == stats.slots == scenario.n_slots
    assert stats.tb_acks <= stats.tb_attempts
    assert stats.delivered_bits == stats.tb_acks * tbs(mcs, ri, scenario.n_prb)
    assert stats.mean_mcs == mcs
    assert stats.mean_ri == ri
