"""Unit tests for block-array channels, Rician fading, noise resolution, seeding."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrlinksim.channel import (_EST_STREAM, _NLOS_STREAM, _int_words, _seed_words,
                               block_rx_power, block_streams, derive_seed,
                               estimate_blocks, estimate_streams, rice1_blocks)
from nrlinksim.scenario import MAX_N_SLOTS, NoiseModel, ScenarioError, scenario_from_dict

from conftest import H_2X4_REF, estimate_blocks_oracle, rice1_blocks_oracle


def _fixed(matrix, **extra):
    return scenario_from_dict(dict({"channel": {"type": "fixed", "matrix": matrix}},
                                   **extra))


class TestChannelGrid:
    """The block-array channel form: one (2, n_tx) matrix per coherence block."""

    def test_shape_properties(self):
        assert _fixed(H_2X4_REF).block_channels(drop_seed=1, n_blocks=5).shape == (5, 2, 4)
        rice = scenario_from_dict({"channel": "rice1", "n_tx": 2})
        assert rice.block_channels(drop_seed=1, n_blocks=3).shape == (3, 2, 2)

    def test_eval_matrices_flat(self):
        # Without estimation error a block is evaluated on one subcarrier,
        # which stands for all of its identical ones.
        h = rice1_blocks(seed=3, k_factor=1.0, n_tx=4, block_ids=range(4))
        est = estimate_blocks(h, 0.0, None, n_sc=10)
        assert est.shape == (4, 1, 2, 4)
        assert np.array_equal(est[:, 0], h)

    def test_eval_matrices_full(self):
        h = rice1_blocks(seed=3, k_factor=1.0, n_tx=2, block_ids=range(4))
        est = estimate_blocks(h, 0.01, estimate_streams(3, range(4)), n_sc=3)
        assert est.shape == (4, 3, 2, 2)

    def test_rejects_bad_shapes(self):
        # Channels enter as a scenario's fixed matrix or as Rician draws;
        # both take only 2 receive rows and 2 or 4 transmit columns.
        with pytest.raises(ScenarioError, match="shape"):
            _fixed([[1.0, 0.0, 0.0, 0.0]] * 3)                   # 3 rows
        with pytest.raises(ScenarioError, match="n_tx"):
            _fixed([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])           # 3 columns
        with pytest.raises(ScenarioError, match="shape"):
            _fixed(H_2X4_REF, n_tx=2)                            # width != n_tx
        with pytest.raises(ValueError, match="n_tx"):
            rice1_blocks(seed=0, k_factor=1.0, n_tx=3, block_ids=[0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            rice1_blocks(seed=0, k_factor=math.inf, n_tx=4, block_ids=[0])
        with pytest.raises(ScenarioError):
            _fixed([[1.0, math.nan], [0.0, 1.0]])


class TestFixedGrid:
    def test_tiles_matrix(self):
        h = _fixed(H_2X4_REF).block_channels(drop_seed=1, n_blocks=4)
        for b in range(4):
            assert np.array_equal(h[b], np.asarray(H_2X4_REF, dtype=complex))

    def test_rejects_bad_input(self):
        # The band a fixed channel spans must be nonempty.
        with pytest.raises(ScenarioError, match="n_prb"):
            _fixed(H_2X4_REF, n_prb=0)


class TestRice1Grid:
    """Single-tap Rician block draws (``rice1_blocks``)."""

    def test_deterministic_per_seed_and_block(self):
        a = rice1_blocks(seed=42, k_factor=1.0, n_tx=4, block_ids=[5])
        b = rice1_blocks(seed=42, k_factor=1.0, n_tx=4, block_ids=[5])
        assert np.array_equal(a, b)
        # A block's draw does not depend on the blocks drawn with it.
        batch = rice1_blocks(seed=42, k_factor=1.0, n_tx=4, block_ids=range(8))
        assert np.array_equal(batch[5], a[0])

    def test_blocks_differ_but_share_los_phase(self):
        k = 1e12  # essentially pure line of sight
        a, b = rice1_blocks(seed=7, k_factor=k, n_tx=2, block_ids=[0, 9])
        # The LOS term is an all-ones matrix with one common phase per seed.
        assert np.allclose(a, b, rtol=1e-5)
        assert np.allclose(np.abs(a), 1.0, rtol=1e-5)
        theta = np.angle(a[0, 0])
        assert np.allclose(np.angle(a), theta)

    def test_scatter_varies_with_block(self):
        a, b = rice1_blocks(seed=7, k_factor=0.0, n_tx=4, block_ids=[0, 1])
        assert not np.allclose(a, b)

    def test_seeds_differ(self):
        a = rice1_blocks(seed=1, k_factor=1.0, n_tx=4, block_ids=[0])
        b = rice1_blocks(seed=2, k_factor=1.0, n_tx=4, block_ids=[0])
        assert not np.allclose(a, b)

    def test_unit_mean_entry_power(self):
        for k in (0.0, 1.0, 5.0):
            p = np.mean([block_rx_power(rice1_blocks(seed=s, k_factor=k, n_tx=4,
                                                     block_ids=range(40)))
                         for s in range(8)])
            assert p == pytest.approx(1.0, rel=0.08), k

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            rice1_blocks(seed=0, k_factor=-0.1, n_tx=4, block_ids=[0])
        with pytest.raises(ValueError):
            rice1_blocks(seed=0, k_factor=1.0, n_tx=3, block_ids=[0])


class TestNoise:
    def test_mean_rx_power_reference(self):
        h = np.asarray([H_2X4_REF, H_2X4_REF], dtype=complex)
        # grand mean of |h|^2 = 2*(1 + 1/4 + 1/16 + 1/64)/8, an exact dyadic
        assert np.array_equal(block_rx_power(h), [0.33203125, 0.33203125])

    @pytest.mark.parametrize("n_sc", [1, 7, 106, 275])
    def test_rx_power_is_the_mean_over_a_tiled_band(self, n_sc):
        # The mean over the one matrix stands for the mean over n_sc
        # materialized copies of it, to within rounding of the two sums.
        rng = np.random.default_rng(n_sc)
        scale = 10.0 ** rng.uniform(-5.0, 5.0, (40, 1, 1))
        h = scale * (rng.standard_normal((40, 2, 4)) + 1j * rng.standard_normal((40, 2, 4)))
        tiled = np.mean(np.abs(np.repeat(h[:, None], n_sc, axis=1)) ** 2, axis=(1, 2, 3))
        assert np.allclose(block_rx_power(h), tiled, rtol=1e-15, atol=0.0)
        # Dyadic entries, each real or imaginary, so that |h| and every sum
        # is exact: the mean is the exact value.
        dyadic = np.ldexp(rng.integers(-64, 64, (40, 2, 4)), -6) * rng.choice([1, 1j], (40, 2, 4))
        exact = [float(sum(Fraction(abs(x)) ** 2 for x in block.ravel().tolist()) / 8)
                 for block in dyadic]
        assert block_rx_power(dyadic).tolist() == exact

    def test_noise_free(self):
        sc = _fixed(H_2X4_REF)
        assert np.array_equal(sc.noise_vars(np.array([0.5, 2.0])), [[0.0, 0.0]])

    def test_snr_resolution_unit_power(self):
        sc = _fixed([[1.0, 1.0], [1.0, 1.0]], noise={"mode": "snr", "snr_db": 10.0})
        p = block_rx_power(sc.block_channels(0, 1))
        assert sc.noise_vars(p).tolist() == [[0.1]]

    def test_snr_resolution_formula(self):
        sc = _fixed(H_2X4_REF, noise={"mode": "snr", "snr_db": 7.0})
        p = block_rx_power(sc.block_channels(0, 1))
        assert p.tolist() == [0.33203125]
        assert sc.noise_vars(p).tolist() == [[0.33203125 / 10.0 ** 0.7]]

    def test_spec_validation(self):
        with pytest.raises(ScenarioError):
            NoiseModel("weird")
        with pytest.raises(ScenarioError):
            NoiseModel("variance", variance=0.0)
        with pytest.raises(ScenarioError):
            NoiseModel("snr")  # no SNR given
        with pytest.raises(ScenarioError, match="noise.snr_db applies only to mode 'snr'"):
            NoiseModel("snr_sweep", snr_db=5.0, snr_db_list=(1.0,))
        with pytest.raises(ScenarioError, match="noise.snr_db_list applies only"):
            NoiseModel("snr", snr_db=5.0, snr_db_list=(1.0,))
        with pytest.raises(ScenarioError, match="noise.variance applies only"):
            NoiseModel(variance=1.0)

    def test_snr_on_zero_channel_rejected(self):
        with pytest.raises(ScenarioError, match="nonzero power"):
            _fixed([[0.0, 0.0], [0.0, 0.0]], noise={"mode": "snr", "snr_db": 0.0})


class TestEstimate:
    def test_zero_error_returns_same_grid(self):
        h = rice1_blocks(seed=1, k_factor=1.0, n_tx=4, block_ids=range(3))
        est = estimate_blocks(h, 0.0, estimate_streams(1, range(3)), n_sc=3)
        assert np.shares_memory(est, h)
        assert np.array_equal(est[:, 0], h)

    def test_perturbation_properties(self):
        h = np.broadcast_to(np.asarray(H_2X4_REF, dtype=complex), (2, 2, 4))
        e = estimate_blocks(h, 0.01, estimate_streams(1, [0, 3]), n_sc=3)
        assert not np.array_equal(e[0, 0], h[0])
        assert not np.array_equal(e[0, 0], e[0, 1])  # varies over the band
        # deterministic in (seed, block), whatever else is estimated with it
        alone = estimate_blocks(h[:1], 0.01, estimate_streams(1, [3]), n_sc=3)
        assert np.array_equal(alone[0], e[1])
        assert np.array_equal(estimate_blocks(h, 0.01, estimate_streams(1, [0, 3]), n_sc=3), e)
        assert not np.array_equal(estimate_blocks(h, 0.01, estimate_streams(2, [0, 3]),
                                                  n_sc=3), e)

    def test_error_variance_scale(self):
        e = estimate_blocks(np.zeros((1, 2, 4), dtype=complex), 0.04,
                            estimate_streams(3, [0]), n_sc=2000)
        assert np.mean(np.abs(e) ** 2) == pytest.approx(0.04, rel=0.05)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            estimate_blocks(np.asarray([H_2X4_REF], dtype=complex), -1e-9,
                            estimate_streams(0, [0]), n_sc=1)

    def test_needs_one_stream_per_block(self):
        h = np.asarray([H_2X4_REF, H_2X4_REF], dtype=complex)
        with pytest.raises(ValueError, match="one stream per block"):
            estimate_blocks(h, 0.01, estimate_streams(0, [0]), n_sc=1)

    @pytest.mark.parametrize("var, n_sc, with_streams, name", [
        (math.nan, 3, True, "est_error_var"), (math.inf, 3, True, "est_error_var"),
        (0.01, 0, True, "n_sc"), (0.0, 0, True, "n_sc"), (0.01, 3, False, "streams")])
    def test_rejects_inputs_outside_its_contract(self, var, n_sc, with_streams, name):
        streams = estimate_streams(0, [0]) if with_streams else None
        with pytest.raises(ValueError, match=name):
            estimate_blocks(np.asarray([H_2X4_REF], dtype=complex), var, streams, n_sc)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)

    def test_distinct(self):
        seeds = {derive_seed(a, b) for a in range(5) for b in range(5)}
        assert len(seeds) == 25

    def test_order_sensitive(self):
        assert derive_seed(0, 1) != derive_seed(1, 0)


# Seeds at the word edges of SeedSequence's entropy: 0 is the one word
# [0], below 2^32 one word, from 2^32 two words, from 2^64 three.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1),
                  st.builds(derive_seed, st.integers(0, 2**32), st.integers(0, 99)))
block_lists = st.lists(st.one_of(st.integers(0, 3), st.integers(0, MAX_N_SLOTS)),
                       min_size=1, max_size=6)
tags = st.sampled_from([_NLOS_STREAM, _EST_STREAM])


@pytest.mark.numpy_bits
class TestBlockStreams:
    """Bulk stream derivation (``block_streams``) against NumPy and the
    per-block generator loops it replaced (``tests/conftest.py`` oracles)."""

    @settings(max_examples=200, deadline=None)
    @given(tag=tags, seed=seeds, blocks=block_lists)
    @example(tag=_NLOS_STREAM, seed=0, blocks=[0])
    @example(tag=_EST_STREAM, seed=2**64 - 1, blocks=[0, MAX_N_SLOTS, 2**32 - 1])
    def test_words_match_seed_sequence(self, tag, seed, blocks):
        words = _seed_words([tag, *_int_words(seed), np.array(blocks, dtype=np.uint64)])
        got = np.stack([words[k] | words[k + 1] << 32 for k in range(0, 8, 2)], axis=-1)
        want = [np.random.SeedSequence([tag, seed, b]).generate_state(4, np.uint64)
                for b in blocks]
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(tag=tags, seed=seeds, blocks=block_lists)
    @example(tag=_EST_STREAM, seed=2**32, blocks=[0, 1])
    def test_states_match_default_rng(self, tag, seed, blocks):
        want = [np.random.default_rng([tag, seed, b]).bit_generator.state for b in blocks]
        assert block_streams(tag, seed, blocks).states == want

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, blocks=block_lists, k_factor=st.sampled_from([0.0, 1.0, 5.0]),
           n_tx=st.sampled_from([2, 4]))
    def test_rice1_matches_per_block_loop(self, seed, blocks, k_factor, n_tx):
        assert (rice1_blocks(seed, k_factor, n_tx, blocks).tobytes()
                == rice1_blocks_oracle(seed, k_factor, n_tx, blocks).tobytes())

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, blocks=block_lists, n_tx=st.sampled_from([2, 4]),
           n_sc=st.integers(1, 7), var=st.sampled_from([0.0, 0.01, 0.3]))
    def test_estimate_matches_per_block_loop(self, seed, blocks, n_tx, n_sc, var):
        h = rice1_blocks(seed, 1.0, n_tx, blocks)
        got = estimate_blocks(h, var, estimate_streams(seed, blocks), n_sc)
        assert got.tobytes() == estimate_blocks_oracle(h, var, seed, blocks, n_sc).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(1, 12), data=st.data())
    def test_any_subset_or_order_draws_the_same_rows(self, seed, n, data):
        # Rows depend on (seed, block) alone, so drawing some of the blocks,
        # in any order, or a drop's streams a slice at a time (as drop_csi
        # does) gives the rows of one full call.
        order = data.draw(st.permutations(range(n)))
        pick = order[:data.draw(st.integers(1, n))]
        h = rice1_blocks(seed, 1.0, 4, range(n))
        assert np.array_equal(rice1_blocks(seed, 1.0, 4, pick), h[pick])
        streams = estimate_streams(seed, range(n))
        est = estimate_blocks(h, 0.05, streams, 3)
        assert np.array_equal(estimate_blocks(h[pick], 0.05, estimate_streams(seed, pick), 3),
                              est[pick])
        step = data.draw(st.integers(1, n))
        chunks = [estimate_blocks(h[lo:lo + step], 0.05, streams[lo:lo + step], 3)
                  for lo in range(0, n, step)]
        assert np.array_equal(np.concatenate(chunks), est)

    @pytest.mark.parametrize("seed", [2**64, 2**96 + 7, 2**200 - 1])
    def test_seeds_beyond_64_bits_draw_the_loop_bytes(self, seed):
        # Three or more seed words put the entropy beyond SeedSequence's
        # pool of 4; the derivation folds the rest in as NumPy does.
        blocks = [0, 1, 77, MAX_N_SLOTS]
        assert (rice1_blocks(seed, 1.0, 4, blocks).tobytes()
                == rice1_blocks_oracle(seed, 1.0, 4, blocks).tobytes())
        h = rice1_blocks(seed, 1.0, 2, blocks)
        assert (estimate_blocks(h, 0.01, estimate_streams(seed, blocks), 5).tobytes()
                == estimate_blocks_oracle(h, 0.01, seed, blocks, 5).tobytes())

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError):  # as the per-block generators did
            np.random.default_rng([_NLOS_STREAM, -1, 0])
        with pytest.raises(ValueError, match="seed"):
            rice1_blocks(-1, 1.0, 4, [0])
        with pytest.raises(ValueError, match="seed"):
            estimate_streams(-1, [0])

    @pytest.mark.parametrize("blocks", [[-1], [0, -5], [2**32], [2**70], [0.5], [[0, 1]]])
    def test_bad_block_ids_rejected_by_name(self, blocks):
        with pytest.raises(ValueError, match="block_ids"):
            rice1_blocks(0, 1.0, 4, blocks)
        with pytest.raises(ValueError, match="block_ids"):
            estimate_streams(0, blocks)

    def test_block_ids_of_any_scenario_are_one_word(self):
        # A block id is below n_slots <= MAX_N_SLOTS, so it is one 32-bit
        # entropy word, the only form block_streams takes.
        assert MAX_N_SLOTS <= 2**32
        top = MAX_N_SLOTS - 1
        assert np.array_equal(rice1_blocks(5, 1.0, 4, [top]),
                              rice1_blocks_oracle(5, 1.0, 4, [top]))

    def test_no_blocks(self):
        assert rice1_blocks(3, 1.0, 2, []).shape == (0, 2, 2)
        assert len(estimate_streams(3, [])) == 0
