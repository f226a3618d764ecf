"""Unit tests for the UE-side CSI engine (RI, PMI, CQI)."""

import math
import tracemalloc
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nrlinksim import csi
from nrlinksim.channel import estimate_blocks, estimate_streams, rice1_blocks
from nrlinksim.codebook import (ConfigurationError, PrecoderCodebook,
                                build_codebook, build_codebook_set)
from nrlinksim.csi import (CQI_FROM_SINR, DB_CEIL, DB_FLOOR, DET_EPS, NOISE_FREE_LAYER_SINR,
                           PMI_TIE_REL_TOL, CsiReports, Scratch, _split_batch,
                           compute_ri_blocks, gamma_stack, layer_powers, lin_to_int_db,
                           make_reports, select_pmi_blocks)
from nrlinksim.link import effective_sinrs_db
from nrlinksim.scenario import CsiConfig, ScenarioError

from conftest import (GAMMA_2X4_REF, H_2X2_REF, H_2X4_REF, H_ORTHO, eff_sinrs_db_oracle,
                      gram_metric_oracle, pair_layer_sinrs_oracle, select_cqi, select_pmi_oracle)


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


def _rows(cb, rows) -> PrecoderCodebook:
    """The codebook of ``cb``'s rows ``rows``, keys and precoders together."""
    return PrecoderCodebook(cb.ports, cb.rank, cb.keys[rows], cb.precoders[rows])


def _pmi(mats, noise_var, cb):
    """Winning key and integer-dB wideband SINR of a one-block search."""
    winners, ratios = select_pmi_blocks(mats, [noise_var], cb)
    return tuple(cb.keys[winners[0]].tolist()), lin_to_int_db(float(ratios[0]))


class LayerSinrs(NamedTuple):
    """Per-layer MMSE SINR with its (signal, interference+noise) split."""

    sinr: np.ndarray
    signal: np.ndarray
    noise_interf: np.ndarray


def _codebook_sinrs(mats, cb, pmi, noise_var):
    """The per-layer SINRs ``link.effective_sinrs_db`` averages: block ``b``
    of ``mats`` under ``cb.precoders[pmi[..., b]]``, signal over
    interference+noise of the shared kernel, 0 where that is 0.  Shape
    ``pmi.shape + (n_eval, n_layers)``."""
    p, s, t = layer_powers(mats, cb, noise_var, Scratch(), pmi)
    signal, noise_interf = p * s, s * t
    return np.divide(signal, noise_interf, out=np.zeros_like(signal),
                     where=noise_interf > 0.0)[..., 0]


def _pair_sinrs(mats, w, noise_var):
    """:func:`_codebook_sinrs` under any precoders ``w``, shape ``(...,
    n_blocks, n_tx, n_layers)``: they make up the codebook."""
    w = np.asarray(w, dtype=complex)
    precoders = w.reshape((-1,) + w.shape[-2:])
    cb = PrecoderCodebook(w.shape[-2], w.shape[-1], np.zeros((len(precoders), 4), dtype=int),
                          precoders)
    return _codebook_sinrs(mats, cb, np.arange(len(precoders)).reshape(w.shape[:-2]), noise_var)


def _layer_sinrs(h, w, noise_var):
    """Per-layer MMSE SINR and split of one subcarrier under one precoder."""
    h, w = np.asarray(h, dtype=complex), np.asarray(w, dtype=complex)
    p, s, t = _split_batch((h @ w)[..., None], noise_var, Scratch())
    return LayerSinrs(_pair_sinrs(_flat(h), w[None], [noise_var])[0, 0],
                      (p * s)[..., 0], (s * t)[..., 0])


def _report(mats, noise_var, cfg, cbs):
    """One block's report as (ri, PMI key, wideband SINR dB, CQI); the PMI
    must be a row of the codebook of the reported rank."""
    rep = make_reports(mats, [noise_var], cfg)
    ri = int(rep.ri[0])
    keys = cbs[(mats.shape[-1], ri)].keys
    assert 0 <= rep.pmi[0] < len(keys)
    key = tuple(keys[rep.pmi[0]].tolist())
    return ri, key, int(rep.wideband_sinr_db[0]), int(rep.cqi[0])


def _cqi(sinr_db: int, ri: int) -> int:
    """The engine's CQI of one report, from its table."""
    return int(CQI_FROM_SINR[ri - 1, sinr_db - DB_FLOOR])


def _oracle_layer_sinrs(h, w, noise_var):
    """Independent per-layer MMSE SINR ``g_l^H R_l^-1 g_l``, where
    ``R_l = v I + sum_{k != l} g_k g_k^H`` is the layer's interference plus
    noise covariance."""
    g = np.asarray(h) @ np.asarray(w)
    out = []
    for l in range(g.shape[1]):
        others = np.delete(g, l, axis=1)
        r = noise_var * np.eye(2) + others @ others.conj().T
        out.append(float(np.real(g[:, l].conj() @ np.linalg.inv(r) @ g[:, l])))
    return np.array(out)


def _oracle_wideband_ratios(mats, cb, noise_var):
    """Independent wideband metric per candidate: ratio of summed powers.

    A layer of MMSE SINR ``x`` carries signal ``s^2`` and interference plus
    noise ``s (1 - s)``, with ``s = x / (1 + x)``.
    """
    ratios = []
    for w in cb.precoders:
        sig = nin = 0.0
        for h in mats:
            for x in _oracle_layer_sinrs(h, w, noise_var):
                s, t = x / (1.0 + x), 1.0 / (1.0 + x)
                sig += s * s
                nin += s * t
        ratios.append(sig / nin)
    return ratios


def _random_mats(seed, n_sc, n_tx):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_sc, 2, n_tx)) + 1j * rng.standard_normal((n_sc, 2, n_tx))


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


@pytest.mark.numpy_bits
class TestRiVoteEdges:
    """Each subcarrier votes as ``gamma_stack(mats) < gamma_th`` on both sides
    of each edge of the vote, and a block reports their strict majority."""

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -268], ids=["unit", "subnormal_gram"])
    def test_metric_at_and_one_ulp_above_gamma_th(self, scale):
        # gamma_th sits at each subcarrier's metric, which then votes for one
        # layer, and one ulp above it, which votes for two.  Thresholds near
        # the median put the block's vote at a tie and one vote past it.  At
        # 2^-268 the Gram's products are subnormal.
        rng = np.random.default_rng(11)
        mats = (rng.standard_normal((300, 2, 4)) + 1j * rng.standard_normal((300, 2, 4))) * scale
        gammas = gamma_stack(mats)
        assert np.all((gammas > 2.0) & np.isfinite(gammas))
        for g in gammas.tolist():
            for th in (g, math.nextafter(g, math.inf)):
                two = gammas < th
                cfg = CsiConfig(gamma_th=th)
                assert np.array_equal(compute_ri_blocks(mats[:, None], cfg), np.where(two, 2, 1))
                assert _ri(mats[None], cfg) == (2 if 2 * np.count_nonzero(two) > len(mats) else 1)

    def test_det_just_across_its_edge(self):
        # Rows h0 and h0 + eps v with eps swept across det = DET_EPS tr^2.
        # gamma_th is far above every finite metric, so a subcarrier votes
        # for two layers exactly where its metric is finite.
        rng = np.random.default_rng(0)
        h0 = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        v = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        eps = 2.0 * math.sqrt(DET_EPS) * np.linalg.norm(h0, axis=1) / np.linalg.norm(v, axis=1)
        sweep = 1.0 + np.linspace(-0.5, 0.5, 4001)[:, None, None]
        mats = np.stack([np.broadcast_to(h0, sweep.shape[:1] + h0.shape),
                         h0 + eps[:, None] * sweep * v], axis=-2).reshape(-1, 2, 4)
        gammas = gamma_stack(mats)
        finite = np.isfinite(gammas)
        assert finite.any() and not finite.all()
        assert gammas[finite].max() < 1e13
        got = compute_ri_blocks(mats[:, None], CsiConfig(gamma_th=1e13))
        assert np.array_equal(got, np.where(finite, 2, 1))
        # Clear of the band where the two forms may part, the Gram oracle's
        # det test gives the same edge.
        oracle = gram_metric_oracle(mats)
        tr2 = oracle.tr * oracle.tr
        clear = np.abs(oracle.det - DET_EPS * tr2) > VOTE_BAND_REL * tr2
        assert 0 < np.count_nonzero(clear) < len(mats)
        assert np.array_equal(finite[clear], np.isfinite(oracle.gamma)[clear])


# Where gamma_stack and the Gram oracle may vote apart.  Take u = 2^-53,
# tr = r0 + r1 and at most 4 terms per row.  gamma_stack's num = r0^2 +
# r1^2 + 2|m01|^2 is within about 30u num of its exact value, and its
# det = r0 r1 - |m01|^2 within about 27u r0 r1 <= 7u tr^2.  The oracle's
# Gram products obey bounds of the same form, about twice as wide.  So
# the two det tests differ by at most about 20u tr^2.  Since tr^2 = num +
# 2 det = (gamma + 2) det, two finite metrics differ by at most about
# 60u (gamma + 2) gamma: the cancellation in det grows with the metric.
# A band of 2^-44 = 512u, in units of tr^2 at the det edge and of
# (gamma_th + 2) gamma_th at gamma_th, holds either bound 8 times over,
# so outside it both forms vote alike.  The bounds are relative: they
# hold while tr lies within 2^+-450, where tr^2 neither overflows nor
# underflows and what underflows inside det is far below the band.
VOTE_BAND_REL = 2.0 ** -44


@st.composite
def ri_vote_cases(draw):
    """A block of channels near the edges of the vote, and a gamma_th.

    The second row of each channel is either a multiple of the first plus a
    perturbation 2^-k as large, k from 0 to 24, so that det runs from
    generic down past the edge; or the first plus a perturbation orthogonal
    to it that puts det / tr^2 at DET_EPS (1 +- 2^-j), j from 0 to 6,
    across the det band, which is about 6 % of DET_EPS wide.  The block is
    scaled by 2^s, |s| <= 235, so that tr runs past 2^+-450.  gamma_th is
    at one subcarrier's oracle metric times 1 +- 2^-j, j from 1 to 52,
    within and beyond the metric band; or log-uniform up to 2^47; or 2^47,
    above every finite metric clear of the det band (at most about 1 /
    DET_EPS), where a subcarrier votes for two layers if its det passes.
    """
    sign = st.sampled_from([-1.0, 1.0])
    n_sc = draw(st.integers(1, 6))
    n_tx = draw(st.sampled_from([2, 4]))
    parts = draw(hnp.arrays(np.int64, (4, n_sc, n_tx), elements=st.integers(-999, 999),
                             fill=st.nothing())) / 999.0
    h0, v = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    p0 = np.sum(np.abs(h0) ** 2, axis=-1, keepdims=True)
    if draw(st.booleans()):
        c = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        h1 = c * h0 + 2.0 ** -draw(st.floats(0.0, 24.0)) * v
    else:
        # With v orthogonal to h0, det / tr^2 = x / (2 + x)^2 at x = eps^2 |v|^2 / |h0|^2.
        v -= np.sum(v * np.conj(h0), axis=-1, keepdims=True) / np.where(p0 > 0.0, p0, 1.0) * h0
        pv = np.sum(np.abs(v) ** 2, axis=-1, keepdims=True)
        x = 4.0 * DET_EPS * (1.0 + draw(sign) * 2.0 ** -draw(st.floats(0.0, 6.0)))
        h1 = h0 + np.sqrt(x * p0 / np.where(pv > 0.0, pv, np.inf)) * v
    mats = np.stack([h0, h1], axis=-2) * 2.0 ** draw(st.integers(-235, 235))
    gammas = gram_metric_oracle(mats).gamma
    finite = gammas[np.isfinite(gammas)].tolist()
    mode = draw(st.sampled_from(["near", "free", "above"]))
    if mode == "near" and finite:
        g = draw(st.sampled_from(finite))
        gamma_th = g * (1.0 + draw(sign) * 2.0 ** -draw(st.integers(1, 52)))
    elif mode == "above":
        gamma_th = 2.0 ** 47
    else:
        gamma_th = 2.0 ** draw(st.floats(1.0, 47.0))
    return mats[None], max(gamma_th, 2.0)


@pytest.mark.numpy_bits
@settings(max_examples=300, deadline=None)
@given(case=ri_vote_cases())
@example(case=(np.array([[[[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]]], dtype=complex), 2.7))
def test_ri_votes_match_the_gram_oracle(case):
    mats, gamma_th = case
    oracle = gram_metric_oracle(mats)
    tr2 = oracle.tr * oracle.tr
    clear = ((np.abs(oracle.gamma - gamma_th) > VOTE_BAND_REL * (gamma_th + 2.0) * gamma_th)
             & (np.abs(oracle.det - DET_EPS * tr2) > VOTE_BAND_REL * tr2)
             & (oracle.tr > 2.0 ** -450) & (oracle.tr < 2.0 ** 450))
    votes = gamma_stack(mats) < gamma_th
    want = oracle.gamma < gamma_th
    assert np.array_equal(votes[clear], want[clear])
    if clear.all():
        ri = compute_ri_blocks(mats, CsiConfig(gamma_th=gamma_th))
        assert ri.tolist() == [2 if 2 * np.count_nonzero(want) > want.size else 1]


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
        with pytest.raises(ScenarioError, match=r"csi\." + next(iter(kwargs))):
            CsiConfig(**kwargs)


class TestLayerSinrs:
    def test_rank1_reference(self):
        w = 0.5 * np.ones((4, 1), dtype=complex)
        out = _layer_sinrs(H_ORTHO, w, 0.1)
        assert out.sinr == pytest.approx([5.0], rel=1e-12)
        assert out.signal / out.noise_interf == pytest.approx(out.sinr)

    def test_rank2_reference(self):
        w = build_codebook(4, 2).precoders[2]  # key (0, 0, 1, 0)
        assert tuple(build_codebook(4, 2).keys[2]) == (0, 0, 1, 0)
        out = _pair_sinrs(_flat(H_ORTHO), w[None], [0.1])[0, 0]
        assert out == pytest.approx([2.5, 2.5], rel=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(12)
        cb1 = build_codebook(4, 1)
        cb2 = build_codebook(4, 2)
        for _ in range(25):
            h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            for cb in (cb1, cb2):
                w = cb.precoders[rng.integers(len(cb.precoders))]
                for nv in (1.0, 0.1, 0.01):
                    got = _pair_sinrs(_flat(h), w[None], [nv])[0, 0]
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
        out = _pair_sinrs(_flat(h), w[None], [0.0])[0, 0]
        assert out[0] == NOISE_FREE_LAYER_SINR
        assert out[1] == 0.0

    def test_zero_channel_zero_sinr(self):
        h = np.zeros((2, 2), dtype=complex)
        w = np.eye(2, dtype=complex) / math.sqrt(2.0)
        assert np.array_equal(_pair_sinrs(_flat(h), w[None], [0.5])[0, 0], [0.0, 0.0])


class TestGridLayerSinrs:
    def test_flat_grid_single_row(self):
        w = 0.5 * np.ones((4, 1), dtype=complex)
        out = _pair_sinrs(_flat(H_ORTHO), w[None], [0.1])
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(5.0, rel=1e-12)

    def test_full_grid_rows(self):
        grid = _grid_of(_chan_with_gamma(2.1), _chan_with_gamma(3.0),
                        _chan_with_gamma(4.0))
        w = np.eye(2, dtype=complex) / math.sqrt(2.0)
        out = _pair_sinrs(grid, w[None], [0.3])
        assert out.shape == (1, 3, 2)
        for sc, h in enumerate(grid[0]):
            assert out[0, sc] == pytest.approx(_oracle_layer_sinrs(h, w, 0.3),
                                               rel=1e-9)


class TestSelectPmi:
    def test_orthonormal_rows_rank2_tie(self):
        grid = _flat(H_ORTHO)
        cb = build_codebook(4, 2)
        idx, sinr_db = _pmi(grid, 0.1, cb)
        assert idx == (0, 0, 1, 0)
        assert sinr_db == 4  # wideband ratio 2.5 -> 3.98 dB -> 4

        ratios = _oracle_wideband_ratios(grid[0], cb, 0.1)
        best = max(ratios)
        tied = [i for i, r in enumerate(ratios) if r >= best * (1 - 1e-9)]
        assert len(tied) == 16
        assert all(cb.keys[tied, 2] == 1)
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
        assert idx == tuple(cb.keys[winner])
        assert sinr_db == int(np.clip(round(10 * math.log10(ratios[winner])), -10, 40))

    @pytest.mark.parametrize("gap,winner", [(1e-10, 1), (1e-13, 0)])
    def test_tie_band_is_narrow(self, gap, winner):
        # Two candidates whose wideband ratios differ by ``gap`` (relative),
        # the later one higher: only inside PMI_TIE_REL_TOL does the first
        # win.  A band of 1e-9 would tie the 1e-10 pair.
        cb = build_codebook(2, 1)
        precoders = cb.precoders[[0, 0]]
        precoders[1] *= math.sqrt(1.0 + gap)
        two = PrecoderCodebook(2, 1, cb.keys[:2], precoders)
        ratios = [select_pmi_blocks(_flat(H_2X2_REF), [0.1], _rows(two, [k]))[1][0]
                  for k in (0, 1)]
        assert ratios[1] / ratios[0] - 1 == pytest.approx(gap, rel=1e-3)
        assert select_pmi_blocks(_flat(H_2X2_REF), [0.1], two)[0][0] == winner

    def test_single_candidate_codebook(self):
        full = build_codebook(4, 1)
        cb = _rows(full, [5])
        idx, _ = _pmi(_flat(H_2X4_REF), 0.1, cb)
        assert idx == tuple(full.keys[5])

    @pytest.mark.parametrize("rank", [1, 2])
    def test_repeated_searches_reuse_their_temporaries(self, rank):
        # Searches sharing a Scratch allocate their block-sized temporaries
        # once; a repeat allocates less than half of what the first one
        # did, whatever NumPy buffers inside its ufuncs.
        mats = _random_mats(6, 106, 4)[None]
        noise_var = [[1.0], [0.1], [0.01]]
        cb, scratch, peaks = build_codebook(4, rank), Scratch(), []
        for _ in range(2):
            tracemalloc.start()
            select_pmi_blocks(mats, noise_var, cb, scratch)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < peaks[0] / 2

    @pytest.mark.parametrize("rank", [1, 2])
    def test_warmed_search_copies_no_operand(self, rank):
        # With a Scratch that earlier searches have sized, a full-band search
        # allocates only its small per-candidate results, 7-8 KB: no ufunc
        # buffers a strided or broadcast operand.  Such copies took 55 KB at
        # rank 1 and 108 KB at rank 2 when the layers were the innermost axis.
        mats = _random_mats(6, 106, 4)[None]
        noise_var = [[1.0], [0.1], [0.01]]
        cb, scratch = build_codebook(4, rank), Scratch()
        select_pmi_blocks(mats, noise_var, cb, scratch)
        tracemalloc.start()
        select_pmi_blocks(mats, noise_var, cb, scratch)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 * 1024

    def test_scratch_changes_no_result(self):
        # One Scratch serves searches of both ranks, growing its buffers,
        # zero noise included; no result changes, and none is overwritten
        # by a later search.
        noise_var = [[1.0], [0.0], [0.01]]
        scratch, kept = Scratch(), []
        for seed, rank, n_eval in [(7, 1, 106), (8, 2, 7), (9, 2, 106), (10, 1, 1)]:
            mats = _random_mats(seed, n_eval, 4)[None]
            cb = build_codebook(4, rank)
            got = select_pmi_blocks(mats, noise_var, cb, scratch)
            want = select_pmi_blocks(mats, noise_var, cb)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
            kept.append((got, [a.copy() for a in got]))
        assert all(np.array_equal(a, b) for got, want in kept for a, b in zip(got, want))

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
            assert got[0] == base[0]
            assert got[1] == base[1]

    def test_noise_free_search(self):
        # With zero noise all candidates saturate; the first index wins.
        idx, sinr_db = _pmi(_flat(H_2X4_REF), 0.0, build_codebook(4, 1))
        assert idx == (0, 0, 0, 0)
        assert sinr_db == 40


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_tx=st.sampled_from([2, 4]),
       rank=st.sampled_from([1, 2]), n_sc=st.integers(1, 3),
       snr_db=st.floats(-60.0, 60.0))
def test_split_matches_oracles(seed, n_tx, rank, n_sc, snr_db):
    # Noise from 1e-6 to 1e6 times the mean channel power, per layer and
    # per candidate's wideband ratio.
    mats = _random_mats(seed, n_sc, n_tx)
    noise_var = float(np.mean(np.abs(mats) ** 2)) / 10.0 ** (snr_db / 10.0)
    cb = build_codebook(n_tx, rank)
    w = cb.precoders[seed % len(cb.precoders)]
    got = _pair_sinrs(mats[None], w[None], [noise_var])[0]
    want = [_oracle_layer_sinrs(h, w, noise_var) for h in mats]
    assert got.ravel() == pytest.approx(np.ravel(want), rel=1e-9)

    p, s, t = layer_powers(mats[None], cb, [noise_var], Scratch())
    ratios = (p * s).sum(axis=(-3, -2))[0] / (s * t).sum(axis=(-3, -2))[0]
    want_ratios = _oracle_wideband_ratios(mats, cb, noise_var)
    assert ratios == pytest.approx(want_ratios, rel=1e-9)
    _, best = select_pmi_blocks(mats[None], [noise_var], cb)
    assert best[0] == pytest.approx(max(want_ratios), rel=1e-9)


def _noise_vars(rng, noise: str, shape) -> np.ndarray:
    """Noise variances from 1e-6 to 1e3, all of them ``"positive"``, all
    ``"zero"``, or ``"mixed"``: about half zero, the first zero and the
    last not."""
    noise_var = 10.0 ** rng.uniform(-6.0, 3.0, shape)
    if noise == "zero":
        noise_var[:] = 0.0
    elif noise == "mixed":
        assume(noise_var.size > 1)
        zero = rng.random(noise_var.shape) < 0.5
        zero.flat[0], zero.flat[-1] = True, False
        noise_var[zero] = 0.0
    return noise_var


@pytest.mark.numpy_bits
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_tx=st.sampled_from([2, 4]),
       rank=st.sampled_from([1, 2]), n_eval=st.sampled_from([1, 7, 106]),
       n_blocks=st.integers(1, 3), n_points=st.integers(1, 4),
       noise=st.sampled_from(["zero", "mixed", "positive"]))
@example(seed=3, n_tx=4, rank=2, n_eval=106, n_blocks=1, n_points=3, noise="positive")
@example(seed=3, n_tx=4, rank=1, n_eval=106, n_blocks=1, n_points=3, noise="positive")
@example(seed=4, n_tx=2, rank=2, n_eval=7, n_blocks=2, n_points=2, noise="mixed")
def test_search_kernel_matches_the_oracle_bitwise(seed, n_tx, rank, n_eval, n_blocks,
                                                  n_points, noise):
    # The search and the pair pass's per-layer SINRs compute what the
    # oracles compute, in the same order, so winners and every float agree
    # to the bit.
    rng = np.random.default_rng(seed)
    mats = (rng.standard_normal((n_blocks, n_eval, 2, n_tx))
            + 1j * rng.standard_normal((n_blocks, n_eval, 2, n_tx)))
    noise_var = _noise_vars(rng, noise, (n_points, n_blocks))
    cb = build_codebook(n_tx, rank)
    want_winners, want_ratios = select_pmi_oracle(mats, noise_var, cb)
    # A new Scratch, then one whose buffers a search at the other rank has
    # already sized and filled.
    scratch = Scratch()
    select_pmi_blocks(mats, noise_var, build_codebook(n_tx, 3 - rank), scratch)
    for winners, ratios in (select_pmi_blocks(mats, noise_var, cb),
                            select_pmi_blocks(mats, noise_var, cb, scratch)):
        assert np.array_equal(winners, want_winners)
        assert ratios.dtype == want_ratios.dtype and ratios.shape == want_ratios.shape
        assert ratios.tobytes() == want_ratios.tobytes()
    # Every noise point in one broadcast pass, each with its own precoders,
    # against one oracle call per point.
    pmi = rng.integers(len(cb.precoders), size=(n_points, n_blocks))
    got = _codebook_sinrs(mats, cb, pmi, noise_var)
    got_db = effective_sinrs_db(mats, cb, pmi, noise_var, math.inf)
    for point, row in enumerate(noise_var):
        want = pair_layer_sinrs_oracle(mats, cb, pmi[point], row)
        assert got[point].shape == want.shape and got[point].tobytes() == want.tobytes()
        want_db = eff_sinrs_db_oracle(mats, cb, pmi[point], row, math.inf)
        assert got_db[point].tobytes() == want_db.tobytes()


@pytest.mark.numpy_bits
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_tx=st.sampled_from([2, 4]),
       rank=st.sampled_from([1, 2]), n_blocks=st.integers(1, 12),
       n_points=st.integers(1, 4), noise=st.sampled_from(["zero", "mixed", "positive"]))
def test_pair_pass_is_the_search_for_every_candidate_bitwise(seed, n_tx, rank, n_blocks,
                                                             n_points, noise):
    # On flat blocks the pair pass's per-layer power factors (p, s, t) of
    # (block, k) have the bits of the search's for candidate k, for every
    # k and not only the winner.  Both take the product with the whole
    # codebook, over whichever rows the pairs bring; a product with only the
    # reported precoders' columns would not round alike.
    rng = np.random.default_rng(seed)
    mats = (rng.standard_normal((n_blocks, 1, 2, n_tx))
            + 1j * rng.standard_normal((n_blocks, 1, 2, n_tx)))
    noise_var = _noise_vars(rng, noise, (n_points, n_blocks))
    cb = build_codebook(n_tx, rank)
    search = layer_powers(mats, cb, noise_var, Scratch())
    # Every (block, candidate) once, in a random order, as the pairs of one pass.
    block, k = np.divmod(rng.permutation(n_blocks * len(cb.precoders)), len(cb.precoders))
    pairs = layer_powers(mats[block], cb, noise_var[:, block], Scratch(),
                         np.broadcast_to(k, (n_points, k.size)))
    for got, want in zip(pairs, search):
        assert got.shape == (n_points, k.size, 1, rank, 1)
        assert got[..., 0].tobytes() == want[:, block, :, :, k].swapaxes(0, 1).tobytes()


@pytest.mark.numpy_bits
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_tx=st.sampled_from([2, 4]),
       rank=st.sampled_from([1, 2]), n_eval=st.sampled_from([1, 7, 106]),
       n_blocks=st.integers(1, 7), n_points=st.integers(1, 11),
       noise=st.sampled_from(["zero", "mixed", "positive"]))
@example(seed=5, n_tx=4, rank=2, n_eval=106, n_blocks=3, n_points=11, noise="mixed")
@example(seed=6, n_tx=4, rank=1, n_eval=106, n_blocks=7, n_points=3, noise="positive")
def test_fused_sums_are_the_written_out_sums_bitwise(seed, n_tx, rank, n_eval, n_blocks,
                                                     n_points, noise):
    # The search sums each candidate's signal p*s and interference+noise s*t
    # over subcarriers and layers in one einsum pass each.  Its ratios and
    # winners have the bytes of sums over the written-out products.
    rng = np.random.default_rng(seed)
    mats = (rng.standard_normal((n_blocks, n_eval, 2, n_tx))
            + 1j * rng.standard_normal((n_blocks, n_eval, 2, n_tx)))
    noise_var = _noise_vars(rng, noise, (n_points, n_blocks))
    cb = build_codebook(n_tx, rank)
    p, s, t = layer_powers(mats, cb, noise_var, Scratch())
    sig, nin = (p * s).sum(axis=(-3, -2)), (s * t).sum(axis=(-3, -2))
    ratios = np.divide(sig, nin, out=np.zeros_like(sig), where=nin > 0.0)
    best = np.max(ratios, axis=-1, keepdims=True)
    want = np.argmax(ratios >= best - PMI_TIE_REL_TOL * np.abs(best), axis=-1)
    winners, got = select_pmi_blocks(mats, noise_var, cb)
    assert np.array_equal(winners, want)
    assert got.tobytes() == np.take_along_axis(ratios, want[..., None], axis=-1)[..., 0].tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_tx=st.sampled_from([2, 4]),
       rank=st.sampled_from([1, 2]), n_sc=st.integers(1, 3),
       phase=st.floats(0.0, 2.0 * math.pi),
       snr_db=st.one_of(st.none(), st.floats(-20.0, 60.0)))
def test_pmi_winner_ignores_global_phase(seed, n_tx, rank, n_sc, phase, snr_db):
    # None stands for zero noise.
    mats = _random_mats(seed, n_sc, n_tx)
    noise_var = 0.0 if snr_db is None else (
        float(np.mean(np.abs(mats) ** 2)) / 10.0 ** (snr_db / 10.0))
    cb = build_codebook(n_tx, rank)
    base, _ = select_pmi_blocks(mats[None], [noise_var], cb)
    turned, _ = select_pmi_blocks(np.exp(1j * phase) * mats[None], [noise_var], cb)
    assert turned[0] == base[0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_tx=st.sampled_from([2, 4]),
       rank=st.sampled_from([1, 2]), n_sc=st.integers(1, 3),
       snr_db=st.one_of(st.none(), st.floats(-20.0, 60.0)),
       ortho=st.booleans(), perm_seed=st.integers(0, 2 ** 32 - 1))
@example(seed=1, n_tx=4, rank=1, n_sc=1, snr_db=10.0, ortho=False, perm_seed=2)
@example(seed=1, n_tx=4, rank=1, n_sc=1, snr_db=20.0, ortho=True, perm_seed=2)
@example(seed=1, n_tx=4, rank=2, n_sc=2, snr_db=None, ortho=False, perm_seed=2)
def test_pmi_tie_break_survives_codebook_permutation(seed, n_tx, rank, n_sc, snr_db,
                                                     ortho, perm_seed):
    # Candidates within PMI_TIE_REL_TOL of the best are tied; the search
    # returns the tied candidate that comes first in the codebook's own
    # order, so a lone winner keeps its key under any reordering of the rows.
    # None stands for zero noise, where every candidate ties.  Orthonormal
    # rows tie candidates at any noise, at 4 ports and rank 1 only to a
    # few ulps.
    if ortho:
        mats = np.broadcast_to(np.eye(2, n_tx, dtype=complex), (1, n_sc, 2, n_tx))
    else:
        mats = _random_mats(seed, n_sc, n_tx)[None]
    noise_var = [0.0 if snr_db is None else
                 float(np.mean(np.abs(mats) ** 2)) / 10.0 ** (snr_db / 10.0)]
    cb = build_codebook(n_tx, rank)
    n = len(cb.precoders)
    ratios = np.array([select_pmi_blocks(mats, noise_var, _rows(cb, [k]))[1][0]
                       for k in range(n)])
    gap = (ratios.max() - ratios) / ratios.max()
    # Leave out draws so near the tolerance that an ulp could move a candidate.
    assume(np.all(np.abs(gap - PMI_TIE_REL_TOL) > 1e-14))
    tied = set(np.flatnonzero(gap <= PMI_TIE_REL_TOL).tolist())
    perm = np.random.default_rng(perm_seed).permutation(n)
    permuted = _rows(cb, perm)
    got = int(select_pmi_blocks(mats, noise_var, permuted)[0][0])
    if len(tied) == 1:
        assert tuple(permuted.keys[got]) == tuple(cb.keys[min(tied)])
    else:
        assert got == next(p for p in range(n) if perm[p] in tied)


class TestSelectCqi:
    def test_low_sinr_floors_at_4(self):
        for s in range(-10, 3):
            assert _cqi(s, 1) == 4
            assert _cqi(s, 2) == 4
        assert _cqi(-8, 1) == 4

    def test_spot_values(self):
        assert _cqi(3, 1) == 5
        assert _cqi(16, 2) == 12
        assert _cqi(25, 2) == 13
        assert _cqi(12, 1) == 10
        assert _cqi(12, 2) == 10
        assert _cqi(17, 1) == 13
        assert _cqi(17, 2) == 12

    def test_saturation(self):
        assert _cqi(19, 1) == 14
        for s in range(20, 41):
            assert _cqi(s, 1) == 15
        for s in range(22, 41):
            assert _cqi(s, 2) == 13

    def test_monotone_nondecreasing(self):
        for ri in (1, 2):
            vals = [_cqi(s, ri) for s in range(-10, 41)]
            assert vals == sorted(vals)
            assert min(vals) == 4
            assert max(vals) == 15 if ri == 1 else 13

    def test_table_matches_oracle(self):
        assert CQI_FROM_SINR.shape == (2, DB_CEIL - DB_FLOOR + 1)
        for ri in (1, 2):
            for s in range(DB_FLOOR, DB_CEIL + 1):
                assert _cqi(s, ri) == select_cqi(s, ri), (ri, s)


class TestMakeReport:
    def test_reference_grid_report(self):
        ri, pmi, sinr_db, cqi = _report(_flat(H_2X4_REF), 0.1, CsiConfig(),
                                        build_codebook_set(4))
        assert (ri, sinr_db, cqi) == (1, 12, 10)
        assert pmi == (0, 0, 0, 0)

    def test_force_ri_switches_codebook(self):
        ri, pmi, _, cqi = _report(_flat(H_2X4_REF), 0.1, CsiConfig(force_ri=2),
                                  build_codebook_set(4))
        assert ri == 2
        assert cqi <= 13

    def test_force_cqi_verbatim(self):
        for forced in (0, 9, 15):
            _, _, _, cqi = _report(_flat(H_2X4_REF), 0.1, CsiConfig(force_cqi=forced),
                                   build_codebook_set(4))
            assert cqi == forced

    def test_report_invariants_random(self):
        cfg = CsiConfig()
        for n_tx in (2, 4):
            cbs = build_codebook_set(n_tx)
            for seed in range(12):
                h = rice1_blocks(seed=seed, k_factor=1.0, n_tx=n_tx, block_ids=[0])
                noisy = estimate_blocks(h, 0.02, estimate_streams(seed, [0]), n_sc=5)
                for nv in (0.5, 0.05):
                    ri, pmi, sinr_db, cqi = _report(noisy, nv, cfg, cbs)
                    assert ri in (1, 2)
                    assert -10 <= sinr_db <= 40
                    assert 4 <= cqi <= 15
                    if ri == 2:
                        assert cqi <= 13
                    assert cqi == select_cqi(sinr_db, ri)

    @pytest.mark.parametrize("force_cqi", [None, 7])
    def test_columns_match_one_block_at_a_time(self, force_cqi):
        # A batch of blocks of both ranks reports, column by column, what
        # each block reports on its own.
        cfg = CsiConfig(force_cqi=force_cqi)
        cbs = build_codebook_set(4)
        h = rice1_blocks(seed=3, k_factor=1.0, n_tx=4, block_ids=range(24))
        noise_var = np.geomspace(1e-3, 10.0, 24)
        reps = make_reports(h[:, None], noise_var, cfg)
        assert isinstance(reps, CsiReports)
        assert set(reps.ri.tolist()) == {1, 2}
        for col in reps:
            assert col.shape == (24,) and col.dtype.kind == "i"
        for b in range(24):
            ri, pmi, sinr_db, cqi = _report(h[b:b + 1, None], noise_var[b], cfg, cbs)
            assert (reps.ri[b], reps.wideband_sinr_db[b], reps.cqi[b]) == (ri, sinr_db, cqi)
            assert tuple(cbs[(4, ri)].keys[reps.pmi[b]]) == pmi
            if force_cqi is None:
                assert cqi == select_cqi(sinr_db, ri)
        # With a leading axis of noise points, each row reports what the
        # call at that row's noise alone reports; RI keeps one entry per block.
        noise_rows = np.stack([noise_var, noise_var[::-1], np.full(24, 0.3)])
        multi = make_reports(h[:, None], noise_rows, cfg)
        assert np.array_equal(multi.ri, reps.ri)
        for col in multi[1:]:
            assert col.shape == (3, 24) and col.dtype.kind == "i"
        for row, nv in enumerate(noise_rows):
            one = make_reports(h[:, None], nv, cfg)
            for got, want in zip(multi[1:], one[1:]):
                assert np.array_equal(got[row], want)

    def test_no_blocks(self):
        reps = make_reports(np.zeros((0, 1, 2, 4), dtype=complex), [], CsiConfig())
        assert all(col.shape == (0,) for col in reps)


@pytest.mark.parametrize("entry", ["select_pmi_blocks", "make_reports", "effective_sinrs_db"])
@pytest.mark.parametrize("noise_var", [[-0.1], [math.nan], [[0.1], [-0.1]]])
def test_negative_or_nan_noise_is_rejected(entry, noise_var):
    # Every SINR pass goes through layer_powers, which checks the noise.
    mats, cb = _flat(H_2X4_REF), build_codebook(4, 1)
    calls = {"select_pmi_blocks": lambda: select_pmi_blocks(mats, noise_var, cb),
             "make_reports": lambda: make_reports(mats, noise_var, CsiConfig()),
             "effective_sinrs_db": lambda: effective_sinrs_db(
                 mats, cb, np.zeros(np.shape(noise_var), dtype=int), noise_var, 30.0)}
    with pytest.raises(ValueError, match="noise_var"):
        calls[entry]()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 5000), data=st.data())
def test_chunks_cover_the_range_in_budget_sized_slices(n, data):
    # Every item once, in order, in slices of the budget's item count but the
    # last, none empty; elements per item range from 1 to past the budget.
    budget = data.draw(st.just(csi.BATCH_ELEMS) | st.integers(1, 1 << 20), label="budget")
    per_item = data.draw(st.integers(1, 2 * budget + 1), label="elems_per_item")
    with mock.patch.object(csi, "BATCH_ELEMS", budget):
        slices = csi.chunks(n, per_item)
        assert csi.chunks(0, per_item) == []
    assert [i for s in slices for i in range(n)[s]] == list(range(n))
    step, sizes = max(1, budget // per_item), [len(range(n)[s]) for s in slices]
    assert all(0 < size <= step for size in sizes)
    assert all(size == step for size in sizes[:-1])
