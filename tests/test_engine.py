"""Property tests of the drop engine against the slot-by-slot reference loop.

``oracle_drop`` is the closed-loop drop as one loop over slots: it draws
each block's channel, noise level and estimate when the block starts,
one block at a time, makes a report on reporting slots and evaluates
every transport block's effective SINR in the slot that sends it.  The
engine in ``nrlinksim.link`` reorders that work (all blocks of a drop at
once, CSI shared across sweep points), so its statistics must equal the
loop's exactly.  The same random scenarios, with CQI and rank forced,
check the HARQ accounting.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrlinksim.channel import block_rx_power, derive_seed, estimate_blocks, rice1_blocks
from nrlinksim.codebook import build_codebook_set, precoder_for
from nrlinksim.csi import make_reports
from nrlinksim.link import (_ACK_STREAM, SLOT_DURATION_S, ThroughputStats, bler,
                            effective_sinrs_db, mcs_from_cqi, tbs)
from nrlinksim.scenario import scenario_from_dict
from nrlinksim.sweeps import run_sweep_cqi, run_sweep_snr

from conftest import simulate_drop


def block_channel(scenario, seed: int, block: int) -> np.ndarray:
    """True channel of one coherence block, shape (1, 2, n_tx)."""
    if scenario.channel.kind == "fixed":
        return np.asarray(scenario.channel.matrix, dtype=np.complex128)[None]
    return rice1_blocks(seed, scenario.channel.k_factor, scenario.n_tx, [block])


def oracle_drop(scenario, seed: int) -> ThroughputStats:
    """One closed-loop drop, slot by slot."""
    codebooks = build_codebook_set(scenario.n_tx)
    ack_rng = np.random.default_rng([_ACK_STREAM, seed])
    coh = scenario.coherence_slots

    cur_block = -1
    h = noise_var = est = None
    grant = None
    report_block = -1

    tb_grant = None
    tb_tries = 0
    attempts = acks = 0
    delivered = 0
    sum_mcs = sum_ri = sum_cqi = 0

    for slot in range(scenario.n_slots):
        block = 0 if coh is None else slot // coh
        if block != cur_block:
            cur_block = block
            h = block_channel(scenario, seed, block)
            est = estimate_blocks(h, scenario.est_error_var, seed, [block], scenario.n_prb)
            noise_var = scenario.noise_var_for_power(block_rx_power(h, scenario.n_prb))
        if slot % scenario.csi_period == 0 and report_block != block:
            report = make_reports(est, noise_var, scenario.csi, codebooks)[0]
            mcs = mcs_from_cqi(report.cqi)
            # (layers, precoder, MCS, CQI, transport-block bits)
            grant = (report.ri, precoder_for(report.pmi), mcs, report.cqi,
                     tbs(mcs, report.ri, scenario.n_prb))
            report_block = block

        if tb_grant is None:
            tb_grant = grant
            tb_tries = 0

        layers, w, mcs, cqi, bits = tb_grant
        cap = float(scenario.sinr_cap_db[layers])
        eff = effective_sinrs_db(h[:, None], w[None], noise_var, cap)[0]
        p_err = bler(eff, mcs)

        attempts += 1
        tb_tries += 1
        sum_mcs += mcs
        sum_ri += layers
        sum_cqi += cqi
        if ack_rng.random() >= p_err:
            acks += 1
            delivered += bits
            tb_grant = None
        elif tb_tries >= scenario.max_harq_tx:
            tb_grant = None

    n = scenario.n_slots
    goodput = delivered / n / SLOT_DURATION_S * scenario.dl_duty_factor
    return ThroughputStats(
        slots=n,
        tb_attempts=attempts,
        tb_acks=acks,
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
    return {
        "channel": channel, "n_tx": n_tx, "noise": noise, "csi": csi,
        "n_prb": draw(st.sampled_from([1, 3, 106])),
        "n_slots": draw(st.integers(1, 70)),
        "csi_period": draw(st.integers(1, 9)),
        "max_harq_tx": draw(st.integers(1, 5)),
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


@settings(max_examples=60, deadline=None)
@given(doc=scenario_docs())
@example(doc=STALE_GRANTS)
@example(doc=dict(STALE_GRANTS, n_tx=2, csi={"force_ri": 2},
                  noise={"mode": "variance", "variance": 0.05}))
def test_drop_and_cqi_sweep_match_oracle(doc):
    scenario = scenario_from_dict(doc)
    seed = derive_seed(scenario.seed, 0)
    assert simulate_drop(scenario, seed) == oracle_drop(scenario, seed)
    for row in run_sweep_cqi(scenario):
        assert row.drops == (oracle_drop(scenario.with_forced_cqi(row.cqi), seed),)


@settings(max_examples=25, deadline=None)
@given(doc=scenario_docs(), snrs=st.lists(st.floats(-5.0, 30.0), min_size=1, max_size=3))
@example(doc=STALE_GRANTS, snrs=[0.0, 12.5])
def test_snr_sweep_matches_oracle(doc, snrs):
    scenario = scenario_from_dict(dict(doc, noise={"mode": "snr_sweep",
                                                   "snr_db_list": snrs}))
    seed = derive_seed(scenario.seed, 0)
    for snr, row in zip(snrs, run_sweep_snr(scenario)):
        assert row.drops == (oracle_drop(scenario.at_snr(snr), seed),)


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
