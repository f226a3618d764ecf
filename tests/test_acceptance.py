"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Every test prints exactly one ``ACCEPTANCE n: PASS/FAIL`` line (the
project pytest options disable capture, so the lines appear inline) and
then asserts, so a red criterion is both visible and failing.
"""

import io
import math
import time

import numpy as np

from nrlinksim import cli
from nrlinksim.codebook import build_codebook, build_codebook_set
from nrlinksim.csi import (CQI_FROM_SINR, DB_FLOOR, compute_ri_blocks, gamma_stack,
                           lin_to_int_db, select_pmi_blocks)
from nrlinksim.link import SLOT_DURATION_S, tbs
from nrlinksim.scenario import CsiConfig, scenario_from_dict
from nrlinksim.sweeps import run_sweep_cqi, run_sweep_snr, write_snr_sweep_csv

from conftest import EXPECTED_SIZES, H_2X2_REF, H_2X4_REF, scenario_path

# Independent copy of the SINR -> CQI contract used by criterion 5.
_RANK1_CQI = {3: 5, 4: 6, 5: 6, 6: 7, 7: 7, 8: 8, 9: 8, 10: 9, 11: 10,
              12: 10, 13: 11, 14: 11, 15: 11, 16: 12, 17: 13, 18: 13, 19: 14}
_RANK2_CQI = {3: 5, 4: 6, 5: 6, 6: 7, 7: 7, 8: 8, 9: 8, 10: 9, 11: 9,
              12: 10, 13: 10, 14: 11, 15: 11, 16: 12, 17: 12, 18: 12,
              19: 12, 20: 12, 21: 12}


def _verdict(num, label, check):
    try:
        detail = check()
    except AssertionError as exc:
        first = str(exc).splitlines()[0][:160] if str(exc) else "assertion failed"
        print(f"ACCEPTANCE {num}: FAIL - {label} ({first})")
        raise
    print(f"ACCEPTANCE {num}: PASS - {label} ({detail})")


def test_01_gamma_identity_on_random_channels():
    def check():
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        max_rel, min_gamma = 0.0, math.inf
        for i in range(1000):
            n_tx = 4 if i % 2 == 0 else 2
            h = (rng.standard_normal((2, n_tx))
                 + 1j * rng.standard_normal((2, n_tx))) / math.sqrt(2.0)
            g_entry = float(gamma_stack(h))
            s2, s1 = np.linalg.eigvalsh(h @ h.conj().T)
            g_eig = s1 / s2 + s2 / s1
            rel = abs(g_entry - g_eig) / g_eig
            assert rel <= 1e-9, f"rel gap {rel:.3e} at sample {i}"
            assert g_entry >= 2.0, f"gamma {g_entry} < 2 at sample {i}"
            max_rel = max(max_rel, rel)
            min_gamma = min(min_gamma, g_entry)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        return (f"1000 channels, max rel err {max_rel:.1e}, "
                f"min gamma {min_gamma:.4f}, {elapsed:.2f}s")

    _verdict(1, "entrywise gamma equals eigenvalue form", check)


def test_02_reference_channel_gamma_and_rank():
    def check():
        h4 = np.asarray(H_2X4_REF, dtype=complex)
        g4 = float(gamma_stack(h4))
        g5 = float(gamma_stack(np.asarray(H_2X2_REF, dtype=complex)))
        assert abs(g4 - 2.6605) <= 1e-3, f"2x4 gamma {g4}"
        assert abs(g5 - 9.111) <= 1e-3, f"2x2 gamma {g5}"
        ri = int(compute_ri_blocks(h4[None, None], CsiConfig())[0])
        assert ri == 1, f"2x4 reference rank {ri}"
        return f"gamma {g4:.4f} / {g5:.4f}, reported rank {ri}"

    _verdict(2, "reference-channel gamma values and rank", check)


def test_03_codebook_structure():
    def check():
        t0 = time.perf_counter()
        worst_trace = worst_orth = 0.0
        for (ports, rank), want in EXPECTED_SIZES.items():
            cb = build_codebook(ports, rank)
            assert len(cb.precoders) == want, \
                f"{ports}-port rank-{rank} size {len(cb.precoders)} != {want}"
            for w in cb.precoders:
                tr = float(np.trace(w.conj().T @ w).real)
                worst_trace = max(worst_trace, abs(tr - 1.0))
                if rank == 2:
                    worst_orth = max(worst_orth,
                                     abs(np.vdot(w[:, 0], w[:, 1])))
        assert worst_trace <= 1e-12, f"trace error {worst_trace:.2e}"
        assert worst_orth < 1e-12, f"column overlap {worst_orth:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        return (f"sizes 32/32/4/2, max |tr-1| {worst_trace:.1e}, "
                f"max overlap {worst_orth:.1e}, {elapsed:.2f}s")

    _verdict(3, "codebook sizes, unit power, orthogonal layers", check)


def _brute_force_pmi(mats, noise_var, cb):
    """Independent exhaustive search: explicit MMSE quadratic form per
    layer, split power sums, same first-index tie rule and quantizer."""
    ratios = []
    for w in cb.precoders:
        sig = nin = 0.0
        for h in mats:
            g = h @ w
            cinv = np.linalg.inv(g @ g.conj().T + noise_var * np.eye(2))
            for layer in range(g.shape[1]):
                col = g[:, layer]
                x = float(np.real(col.conj() @ cinv @ col))
                sig += x * x
                nin += x - x * x
        ratios.append(sig / nin if nin > 0 else 0.0)
    ratios = np.array(ratios)
    best = float(ratios.max())
    winner = int(np.argmax(ratios >= best - 1e-12 * abs(best)))
    val = float(ratios[winner])
    db = -10 if val == 0 else int(min(max(round(10 * math.log10(val)), -10), 40))
    return tuple(cb.keys[winner]), db


def test_04_pmi_matches_brute_force():
    def check():
        rng = np.random.default_rng(4242)
        books = {n: build_codebook_set(n) for n in (2, 4)}
        t0 = time.perf_counter()
        n_checked = 0
        for i in range(100):
            n_tx = 4 if i % 2 == 0 else 2
            n_sc = 1 + i % 3
            mats = (rng.standard_normal((n_sc, 2, n_tx))
                    + 1j * rng.standard_normal((n_sc, 2, n_tx))) / math.sqrt(2)
            for rank in (1, 2):
                cb = books[n_tx][(n_tx, rank)]
                for noise_var in (1.0, 0.1, 0.01):
                    winners, ratios = select_pmi_blocks(mats[None], [noise_var], cb)
                    key = tuple(cb.keys[winners[0]])
                    db = lin_to_int_db(float(ratios[0]))
                    ref_key, ref_db = _brute_force_pmi(mats, noise_var, cb)
                    assert key == ref_key, \
                        f"sample {i} rank {rank} noise {noise_var}: " \
                        f"{key} != {ref_key}"
                    assert db == ref_db, \
                        f"sample {i} rank {rank} noise {noise_var}: " \
                        f"{db} dB != {ref_db} dB"
                    n_checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        return f"{n_checked} searches identical, {elapsed:.2f}s"

    _verdict(4, "codebook search matches independent brute force", check)


def test_05_cqi_mapping_exact():
    def check():
        for sinr in range(-10, 41):
            want1 = 4 if sinr <= 2 else _RANK1_CQI.get(sinr, 15)
            want2 = 4 if sinr <= 2 else _RANK2_CQI.get(sinr, 13)
            got1, got2 = CQI_FROM_SINR[:, sinr - DB_FLOOR].tolist()
            assert got1 == want1, f"rank 1 at {sinr} dB: {got1} != {want1}"
            assert got2 == want2, f"rank 2 at {sinr} dB: {got2} != {want2}"
        assert CQI_FROM_SINR[0, -8 - DB_FLOOR] == 4
        assert max(CQI_FROM_SINR[1, s - DB_FLOOR] for s in range(-10, 41)) == 13
        return "all integer SINRs in [-10, 40] for both ranks, floor 4, rank-2 cap 13"

    _verdict(5, "SINR-to-CQI mapping exact over the full range", check)


def test_06_forced_cqi_sweep_fixed_channel(cqi_fixed_2x4):
    rows, elapsed = cqi_fixed_2x4

    def check():
        g = [r.goodput_mbps_mean for r in rows]
        assert g[0] == g[1] == g[2], "CQI 0-2 goodput must be identical"
        peak = max(g)
        top = g.index(peak)
        assert top in (12, 13, 14), f"argmax {top} outside 12..14"
        assert top == 13, f"argmax {top} != calibrated 13"
        for i in range(top):
            assert g[i] <= g[i + 1], f"dip on the way up at CQI {i}"
        for i in range(top, 15):
            assert g[i] >= g[i + 1], f"rise on the way down at CQI {i}"
        assert g[15] < 0.9 * peak, f"tail {g[15]:.2f} vs peak {peak:.2f}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        return (f"peak {peak:.1f} Mbps at CQI {top}, unimodal, "
                f"tail ratio {g[15] / peak:.3f}, {elapsed:.1f}s")

    _verdict(6, "fixed-channel forced-CQI sweep shape", check)


def test_07_forced_cqi_sweep_fading_channel(cqi_rice_2x4):
    rows, elapsed = cqi_rice_2x4

    def check():
        g14 = rows[14].goodput_mbps_mean
        g15 = rows[15].goodput_mbps_mean
        rel = abs(g15 - g14) / g14
        assert rel < 0.05, f"top-two gap {rel:.3f}"
        assert rows[15].mean_bler > rows[14].mean_bler, \
            f"bler {rows[15].mean_bler:.3f} !> {rows[14].mean_bler:.3f}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        return (f"CQI 14/15 gap {100 * rel:.1f}%, bler "
                f"{rows[14].mean_bler:.3f} -> {rows[15].mean_bler:.3f}, "
                f"{elapsed:.1f}s")

    _verdict(7, "fading forced-CQI sweep saturates with rising BLER", check)


def test_08_snr_sweep_monotone_and_array_gain(snr_rice_2x4, snr_rice_2x2):
    rows24, t24 = snr_rice_2x4
    rows22, t22 = snr_rice_2x2

    def check():
        worst_z = math.inf
        for rows in (rows24, rows22):
            for lo, hi in zip(rows, rows[1:]):
                d = np.array([b.goodput_mbps - a.goodput_mbps
                              for a, b in zip(lo.drops, hi.drops)])
                se = float(d.std(ddof=1)) / math.sqrt(len(d))
                slack = float(d.mean()) + 2.0 * se
                worst_z = min(worst_z, float(d.mean()) / se if se else math.inf)
                assert slack >= 0.0, \
                    f"goodput drops {lo.snr_db}->{hi.snr_db} dB by " \
                    f"{-d.mean():.2f} Mbps (> 2 se = {2 * se:.2f})"
        min_gap = math.inf
        for a, b in zip(rows24, rows22):
            assert a.snr_db == b.snr_db
            if a.snr_db >= 10.0:
                gap = a.goodput_mbps - b.goodput_mbps
                min_gap = min(min_gap, gap)
                assert gap > 0.0, \
                    f"2x4 not above 2x2 at {a.snr_db} dB (gap {gap:.2f})"
        elapsed = t24 + t22
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        return (f"monotone within 2 se (worst z {worst_z:.1f}), min 2x4-2x2 "
                f"gap {min_gap:.1f} Mbps at snr >= 10, {elapsed:.1f}s")

    _verdict(8, "SNR sweep monotone; 2x4 beats 2x2 at high SNR", check)


def test_09_reruns_are_byte_identical(tmp_path):
    def check():
        cfg = str(scenario_path("cqi_sweep_fixed_2x4.json"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep-cqi", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["sweep-cqi", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), "forced sweep CSVs differ"
        # Fading plus estimation error exercises every random stream.
        sc = scenario_from_dict({
            "channel": {"type": "rice1", "k_factor": 1.0, "coherence_slots": 10},
            "noise": {"mode": "snr_sweep", "snr_db_list": [6, 12]},
            "n_tx": 4, "n_slots": 200, "n_drops": 3, "seed": 7,
            "est_error_var": 0.05,
        })
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            write_snr_sweep_csv(run_sweep_snr(sc), buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1], "fading sweep CSVs differ"
        return (f"forced sweep {a.stat().st_size} bytes and fading sweep "
                f"{len(outs[0])} chars reproduce exactly")

    _verdict(9, "same-seed reruns produce byte-identical CSV", check)


def test_10_uncapped_noise_free_rate_identity():
    def check():
        points = set()
        for ri in (1, 2):
            sc = scenario_from_dict({
                "channel": {"type": "fixed", "matrix": H_2X4_REF},
                "noise": {"mode": "noise_free"},
                "csi": {"force_ri": ri},
                "sinr_cap_db": {"1": None, "2": None},
                "n_slots": 400, "n_drops": 3, "seed": 11,
            })
            for row in run_sweep_cqi(sc):
                want = tbs(row.mcs, ri, sc.n_prb) / SLOT_DURATION_S
                for s in row.drops:
                    assert s.goodput_bps == want, \
                        f"mcs {row.mcs} rank {ri}: {s.goodput_bps} != {want}"
                points.add((row.mcs, ri))
        mcs0 = tbs(0, 1, 106) / SLOT_DURATION_S / 1e6
        assert mcs0 == 7.75, f"mcs 0 rank 1 rate {mcs0} Mbps"
        return f"{len(points)} (mcs, rank) points float-exact; mcs 0 = {mcs0} Mbps"

    _verdict(10, "uncapped noise-free goodput equals tbs per slot", check)
