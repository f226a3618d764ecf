"""Unit tests for the UE-side CSI engine (RI, PMI, CQI)."""

import math

import numpy as np
import pytest

from nrlinksim.channel import estimate_blocks, rice1_blocks
from nrlinksim.codebook import (ConfigurationError, PrecoderCodebook,
                                build_codebook, build_codebook_set)
from nrlinksim.csi import (NOISE_FREE_LAYER_SINR, CsiConfig, CsiReport,
                           _split_batch, block_layer_sinrs, compute_ri_blocks,
                           make_reports, select_cqi, select_pmi_blocks)
from nrlinksim.linalg import gamma_stack, lin_to_int_db

H_2X4_REF = [[1.0, 0.5, 0.25, 0.125], [0.125, 0.25, 0.5, 1.0]]
H_2X2_REF = [[1.0, 0.5], [0.5, 1.0]]
H_ORTHO = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
GAMMA_2X4_REF = 2.6605386228027736


def _chan_with_gamma(gamma: float) -> np.ndarray:
    """2x2 diagonal channel whose Gram condition metric equals ``gamma``."""
    t = (gamma + math.sqrt(gamma * gamma - 4.0)) / 2.0
    return np.diag([1.0, math.sqrt(t)]).astype(complex)


def _grid_of(*channels) -> np.ndarray:
    """One block holding one channel per subcarrier, shape (1, n_sc, 2, n_tx)."""
    return np.stack(channels).astype(complex)[None]


def _flat(h) -> np.ndarray:
    """One flat block: a single matrix standing for every subcarrier."""
    return np.asarray(h, dtype=complex)[None, None]


def _ri(mats, cfg) -> int:
    return int(compute_ri_blocks(mats, cfg)[0])


def _pmi(mats, noise_var, cb):
    """Winning index and integer-dB wideband SINR of a one-block search."""
    winners, ratios = select_pmi_blocks(mats, [noise_var], cb)
    return cb.entries[winners[0]][0], lin_to_int_db(float(ratios[0]))


def _layer_sinrs(h, w, noise_var):
    """Per-layer MMSE split of one subcarrier under one precoder."""
    return _split_batch(np.asarray(h, dtype=complex) @ np.asarray(w, dtype=complex),
                        noise_var)


def _report(mats, noise_var, cfg, cbs) -> CsiReport:
    return make_reports(mats, [noise_var], cfg, cbs)[0]


def _oracle_layer_sinrs(h, w, noise_var):
    """Independent per-layer MMSE SINR: 1 / [(I + G^H G / v)^-1]_ll - 1."""
    g = np.asarray(h) @ np.asarray(w)
    n_layers = g.shape[1]
    b = np.linalg.inv(np.eye(n_layers) + g.conj().T @ g / noise_var)
    return np.array([1.0 / b[l, l].real - 1.0 for l in range(n_layers)])


def _oracle_wideband_ratios(mats, cb, noise_var):
    """Independent wideband metric per candidate: ratio of summed powers."""
    ratios = []
    for _, w in cb.entries:
        sig = nin = 0.0
        for h in mats:
            g = h @ w
            cinv = np.linalg.inv(g @ g.conj().T + noise_var * np.eye(2))
            for l in range(g.shape[1]):
                gl = g[:, l]
                x = float(np.real(gl.conj() @ cinv @ gl))
                sig += x * x
                nin += x - x * x
        ratios.append(sig / nin)
    return ratios


class TestGammaPerSubcarrier:
    def test_flat_grid_broadcasts(self):
        # One evaluated matrix stands for a flat block's identical subcarriers:
        # its metric is each subcarrier's, and its vote is the band's.
        tiled = np.broadcast_to(np.asarray(H_2X4_REF, dtype=complex), (1, 7, 2, 4))
        out = gamma_stack(tiled)
        assert out.shape == (1, 7)
        assert np.allclose(out, GAMMA_2X4_REF, rtol=1e-12)
        assert np.array_equal(out[0], np.full(7, gamma_stack(_flat(H_2X4_REF))[0, 0]))
        for cfg in (CsiConfig(), CsiConfig(gamma_th=2.7)):
            assert _ri(tiled, cfg) == _ri(_flat(H_2X4_REF), cfg)

    def test_per_subcarrier_values(self):
        grid = _grid_of(_chan_with_gamma(2.1), _chan_with_gamma(3.0))
        out = gamma_stack(grid)[0]
        assert out == pytest.approx([2.1, 3.0], rel=1e-12)


class TestComputeRi:
    def test_reference_channels_report_rank1(self):
        cfg = CsiConfig()
        assert _ri(_flat(H_2X4_REF), cfg) == 1
        assert _ri(_flat(H_2X2_REF), cfg) == 1

    def test_orthonormal_rows_report_rank2(self):
        assert _ri(_flat(H_ORTHO), CsiConfig()) == 2

    def test_majority_vote(self):
        low = [_chan_with_gamma(2.1)] * 60
        high = [_chan_with_gamma(3.0)] * 46
        assert _ri(_grid_of(*low, *high), CsiConfig()) == 2

    def test_tie_votes_rank1(self):
        grid = _grid_of(_chan_with_gamma(2.1), _chan_with_gamma(3.0))
        assert _ri(grid, CsiConfig()) == 1

    def test_singular_channel_votes_rank1(self):
        h = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        assert _ri(_grid_of(h, h, h), CsiConfig()) == 1

    def test_threshold_is_strict(self):
        # Orthogonal rows with squared norms 2 and 1 give exactly
        # gamma = (4 + 1) / 2 = 2.5, which must NOT vote for rank 2.
        h = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], dtype=complex)
        at_threshold = _grid_of(h, h, h)
        assert gamma_stack(at_threshold)[0, 0] == 2.5
        assert _ri(at_threshold, CsiConfig(gamma_th=2.5)) == 1
        # Just below the threshold the vote flips.
        assert _ri(at_threshold, CsiConfig(gamma_th=2.5000001)) == 2

    def test_force_ri(self):
        assert _ri(_flat(H_2X4_REF), CsiConfig(force_ri=2)) == 2
        assert _ri(_flat(H_ORTHO), CsiConfig(force_ri=1)) == 1

    def test_single_column_channel_is_rank1(self):
        assert _ri(np.ones((1, 3, 2, 1), dtype=complex), CsiConfig()) == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        mats = rng.standard_normal((9, 2, 4)) + 1j * rng.standard_normal((9, 2, 4))
        base = _ri(mats[None], CsiConfig())
        for c in (2.0 ** -10, 3.7, 2.0 ** 10):
            assert _ri(mats[None] * c, CsiConfig()) == base


class TestCsiConfig:
    def test_defaults(self):
        cfg = CsiConfig()
        assert cfg.gamma_th == 2.5
        assert cfg.force_ri is None and cfg.force_cqi is None

    @pytest.mark.parametrize("kwargs", [
        dict(gamma_th=1.9),
        dict(force_ri=3),
        dict(force_cqi=16),
        dict(force_cqi=-1),
        dict(gamma_th=math.nan),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CsiConfig(**kwargs)


class TestLayerSinrs:
    def test_rank1_reference(self):
        w = 0.5 * np.ones((4, 1), dtype=complex)
        out = _layer_sinrs(H_ORTHO, w, 0.1)
        assert out.sinr == pytest.approx([5.0], rel=1e-12)
        assert out.signal / out.noise_interf == pytest.approx(out.sinr)
        got = block_layer_sinrs(_flat(H_ORTHO), w[None], [0.1])
        assert np.array_equal(got[0, 0], out.sinr)

    def test_rank2_reference(self):
        w = build_codebook(4, 2).matrix(
            build_codebook(4, 2).entries[2][0])  # key (0, 0, 1, 0)
        assert build_codebook(4, 2).entries[2][0].key() == (0, 0, 1, 0)
        out = block_layer_sinrs(_flat(H_ORTHO), w[None], [0.1])[0, 0]
        assert out == pytest.approx([2.5, 2.5], rel=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(12)
        cb1 = build_codebook(4, 1)
        cb2 = build_codebook(4, 2)
        for _ in range(25):
            h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            for cb in (cb1, cb2):
                _, w = cb.entries[rng.integers(len(cb))]
                for nv in (1.0, 0.1, 0.01):
                    got = block_layer_sinrs(_flat(h), w[None], [nv])[0, 0]
                    assert got == pytest.approx(_oracle_layer_sinrs(h, w, nv),
                                                rel=1e-9)

    def test_noise_free_clamps(self):
        w = 0.5 * np.ones((4, 1), dtype=complex)
        out = _layer_sinrs(H_2X4_REF, w, 0.0)
        assert out.sinr == pytest.approx([NOISE_FREE_LAYER_SINR])
        assert out.noise_interf == pytest.approx([1.0])

    def test_noise_free_zero_gain_layer(self):
        # Second precoder column is in the null space of this channel.
        h = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        w = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        out = block_layer_sinrs(_flat(h), w[None], [0.0])[0, 0]
        assert out[0] == NOISE_FREE_LAYER_SINR
        assert out[1] == 0.0

    def test_zero_channel_zero_sinr(self):
        h = np.zeros((2, 2), dtype=complex)
        w = np.eye(2, dtype=complex) / math.sqrt(2.0)
        assert np.array_equal(block_layer_sinrs(_flat(h), w[None], [0.5])[0, 0], [0.0, 0.0])


class TestGridLayerSinrs:
    def test_flat_grid_single_row(self):
        w = 0.5 * np.ones((4, 1), dtype=complex)
        out = block_layer_sinrs(_flat(H_ORTHO), w[None], [0.1])
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(5.0, rel=1e-12)

    def test_full_grid_rows(self):
        grid = _grid_of(_chan_with_gamma(2.1), _chan_with_gamma(3.0),
                        _chan_with_gamma(4.0))
        w = np.eye(2, dtype=complex) / math.sqrt(2.0)
        out = block_layer_sinrs(grid, w[None], [0.3])
        assert out.shape == (1, 3, 2)
        for sc, h in enumerate(grid[0]):
            assert out[0, sc] == pytest.approx(_oracle_layer_sinrs(h, w, 0.3),
                                               rel=1e-9)


class TestSelectPmi:
    def test_orthonormal_rows_rank2_tie(self):
        grid = _flat(H_ORTHO)
        cb = build_codebook(4, 2)
        idx, sinr_db = _pmi(grid, 0.1, cb)
        assert idx.key() == (0, 0, 1, 0)
        assert sinr_db == 4  # wideband ratio 2.5 -> 3.98 dB -> 4

        ratios = _oracle_wideband_ratios(grid[0], cb, 0.1)
        best = max(ratios)
        tied = [i for i, r in enumerate(ratios) if r >= best * (1 - 1e-9)]
        assert len(tied) == 16
        assert all(cb.entries[i][0].i13 == 1 for i in tied)
        assert tied[0] == 2  # enumeration position of (0, 0, 1, 0)

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("noise_var", [1.0, 0.1, 0.01])
    def test_matches_brute_force(self, rank, noise_var):
        grid = _flat(H_2X4_REF)
        cb = build_codebook(4, rank)
        idx, sinr_db = _pmi(grid, noise_var, cb)
        ratios = _oracle_wideband_ratios(grid[0], cb, noise_var)
        best = max(ratios)
        winner = next(i for i, r in enumerate(ratios) if r >= best * (1 - 1e-12))
        assert idx.key() == cb.entries[winner][0].key()
        assert sinr_db == int(np.clip(round(10 * math.log10(ratios[winner])), -10, 40))

    def test_single_candidate_codebook(self):
        full = build_codebook(4, 1)
        only = full.entries[5]
        cb = PrecoderCodebook(4, 1, [only])
        idx, _ = _pmi(_flat(H_2X4_REF), 0.1, cb)
        assert idx.key() == only[0].key()

    def test_mismatched_codebook_rejected(self):
        with pytest.raises(ConfigurationError):
            select_pmi_blocks(_flat(H_2X4_REF), [0.1], build_codebook(2, 1))

    def test_noise_monotonicity(self):
        rng = np.random.default_rng(13)
        cb = build_codebook(4, 1)
        for _ in range(10):
            h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            reported = [_pmi(_flat(h), nv, cb)[1]
                        for nv in (3.0, 1.0, 0.3, 0.1, 0.03)]
            assert reported == sorted(reported)

    def test_subcarrier_order_invariance(self):
        rng = np.random.default_rng(14)
        mats = rng.standard_normal((6, 2, 4)) + 1j * rng.standard_normal((6, 2, 4))
        cb = build_codebook(4, 2)
        base = _pmi(mats[None], 0.2, cb)
        for _ in range(4):
            perm = rng.permutation(6)
            got = _pmi(mats[perm][None], 0.2, cb)
            assert got[0].key() == base[0].key()
            assert got[1] == base[1]

    def test_noise_free_search(self):
        # With zero noise all candidates saturate; the first index wins.
        idx, sinr_db = _pmi(_flat(H_2X4_REF), 0.0, build_codebook(4, 1))
        assert idx.key() == (0, 0, 0, 0)
        assert sinr_db == 40


class TestSelectCqi:
    def test_low_sinr_floors_at_4(self):
        for s in range(-10, 3):
            assert select_cqi(s, 1) == 4
            assert select_cqi(s, 2) == 4
        assert select_cqi(-8, 1) == 4

    def test_spot_values(self):
        assert select_cqi(3, 1) == 5
        assert select_cqi(16, 2) == 12
        assert select_cqi(25, 2) == 13
        assert select_cqi(12, 1) == 10
        assert select_cqi(12, 2) == 10
        assert select_cqi(17, 1) == 13
        assert select_cqi(17, 2) == 12

    def test_saturation(self):
        assert select_cqi(19, 1) == 14
        for s in range(20, 41):
            assert select_cqi(s, 1) == 15
        for s in range(22, 41):
            assert select_cqi(s, 2) == 13

    def test_monotone_nondecreasing(self):
        for ri in (1, 2):
            vals = [select_cqi(s, ri) for s in range(-10, 41)]
            assert vals == sorted(vals)
            assert min(vals) == 4
            assert max(vals) == 15 if ri == 1 else 13

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            select_cqi(10, 3)


class TestMakeReport:
    def test_reference_grid_report(self):
        rep = _report(_flat(H_2X4_REF), 0.1, CsiConfig(), build_codebook_set(4))
        assert rep == CsiReport(ri=1, pmi=rep.pmi, wideband_sinr_db=12, cqi=10)
        assert rep.pmi.key() == (0, 0, 0, 0)
        assert rep.pmi.rank == 1 and rep.pmi.ports == 4

    def test_force_ri_switches_codebook(self):
        rep = _report(_flat(H_2X4_REF), 0.1, CsiConfig(force_ri=2), build_codebook_set(4))
        assert rep.ri == 2
        assert rep.pmi.rank == 2
        assert rep.cqi <= 13

    def test_force_cqi_verbatim(self):
        for forced in (0, 9, 15):
            rep = _report(_flat(H_2X4_REF), 0.1, CsiConfig(force_cqi=forced),
                          build_codebook_set(4))
            assert rep.cqi == forced

    def test_report_invariants_random(self):
        cfg = CsiConfig()
        for n_tx in (2, 4):
            cbs = build_codebook_set(n_tx)
            for seed in range(12):
                h = rice1_blocks(seed=seed, k_factor=1.0, n_tx=n_tx, block_ids=[0])
                noisy = estimate_blocks(h, 0.02, seed=seed, block_ids=[0], n_sc=5)
                for nv in (0.5, 0.05):
                    rep = _report(noisy, nv, cfg, cbs)
                    assert rep.ri in (1, 2)
                    assert rep.pmi.rank == rep.ri
                    assert rep.pmi.ports == n_tx
                    assert -10 <= rep.wideband_sinr_db <= 40
                    assert 4 <= rep.cqi <= 15
                    if rep.ri == 2:
                        assert rep.cqi <= 13
