"""Unit tests for the Type I single-panel precoder codebooks."""

import math

import numpy as np
import pytest

from nrlinksim.codebook import (ConfigurationError, PrecoderCodebook, SUPPORTED,
                                build_codebook, build_codebook_set)

from conftest import precoder_for

EXPECTED_SIZES = {(4, 1): 32, (4, 2): 32, (2, 1): 4, (2, 2): 2}


def by_key(key, rank, ports) -> np.ndarray:
    """The built codebook's precoder of index ``key``, which must occur once."""
    cb = build_codebook(ports, rank)
    [row] = np.flatnonzero((cb.keys == key).all(axis=1))
    return cb.precoders[row]


class TestPrecoderFor:
    """Precoders of known indices, looked up in the built codebooks."""

    def test_4port_rank1_first_entries(self):
        w = by_key((0, 0, 0, 0), rank=1, ports=4)
        assert np.array_equal(w, 0.5 * np.array([[1], [1], [1], [1]], dtype=complex))
        w = by_key((0, 0, 0, 1), rank=1, ports=4)
        assert np.array_equal(w, 0.5 * np.array([[1], [1], [1j], [1j]]))

    def test_4port_rank1_beam_phase(self):
        w = by_key((1, 0, 0, 0), rank=1, ports=4)
        phase = np.exp(1j * np.pi / 4)
        want = 0.5 * np.array([[1], [phase], [1], [phase]])
        assert np.allclose(w, want, rtol=0, atol=1e-15)

    def test_4port_rank2_same_beam(self):
        w = by_key((0, 0, 0, 0), rank=2, ports=4)
        want = np.array([[1, 1], [1, 1], [1, -1], [1, -1]]) / math.sqrt(8.0)
        assert np.allclose(w, want, rtol=0, atol=1e-15)

    def test_4port_rank2_offset_beam(self):
        w = by_key((0, 0, 1, 0), rank=2, ports=4)
        want = np.array([[1, 1], [1, -1], [1, -1], [1, 1]]) / math.sqrt(8.0)
        assert np.allclose(w, want, rtol=0, atol=1e-12)

    def test_2port_entries(self):
        for n in range(4):
            w = by_key((0, 0, 0, n), rank=1, ports=2)
            want = np.array([[1], [1j ** n]]) / math.sqrt(2.0)
            assert np.allclose(w, want, rtol=0, atol=1e-15)
        w0 = by_key((0, 0, 0, 0), rank=2, ports=2)
        assert np.allclose(w0, np.array([[1, 1], [1, -1]]) / 2.0)
        w1 = by_key((0, 0, 0, 1), rank=2, ports=2)
        assert np.allclose(w1, np.array([[1, 1], [1j, -1j]]) / 2.0)

    def test_result_is_readonly(self):
        w = by_key((0, 0, 0, 0), rank=1, ports=4)
        with pytest.raises(ValueError):
            w[0, 0] = 0.0


class TestBuildCodebook:
    @pytest.mark.parametrize("ports,rank", sorted(SUPPORTED))
    def test_sizes(self, ports, rank):
        cb = build_codebook(ports, rank)
        n = EXPECTED_SIZES[(ports, rank)]
        assert cb.keys.shape == (n, 4) and cb.keys.dtype.kind == "i"
        assert cb.precoders.shape == (n, ports, rank)

    @pytest.mark.parametrize("ports,rank", sorted(SUPPORTED))
    def test_unit_trace(self, ports, rank):
        cb = build_codebook(ports, rank)
        for key, w in zip(cb.keys.tolist(), cb.precoders):
            assert w.shape == (ports, rank)
            tr = float(np.trace(w.conj().T @ w).real)
            assert abs(tr - 1.0) < 1e-12, key

    @pytest.mark.parametrize("ports", [2, 4])
    def test_rank2_column_orthogonality(self, ports):
        cb = build_codebook(ports, 2)
        for key, w in zip(cb.keys.tolist(), cb.precoders):
            inner = abs(complex(w[:, 0].conj() @ w[:, 1]))
            assert inner < 1e-12, key

    def test_enumeration_order_4port_rank1(self):
        keys = [tuple(k) for k in build_codebook(4, 1).keys.tolist()]
        want = [(i11, 0, 0, i2) for i11 in range(8) for i2 in range(4)]
        assert keys == want

    def test_enumeration_order_4port_rank2(self):
        keys = [tuple(k) for k in build_codebook(4, 2).keys.tolist()]
        want = [(i11, 0, i13, i2)
                for i11 in range(8) for i13 in range(2) for i2 in range(2)]
        assert keys == want

    def test_enumeration_order_is_lexicographic(self):
        for ports, rank in sorted(SUPPORTED):
            keys = [tuple(k) for k in build_codebook(ports, rank).keys.tolist()]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_entries_unique_as_matrices(self):
        for ports, rank in sorted(SUPPORTED):
            mats = build_codebook(ports, rank).precoders
            for i in range(len(mats)):
                for j in range(i + 1, len(mats)):
                    assert not np.allclose(mats[i], mats[j], atol=1e-9)

    def test_rejects_unsupported(self):
        with pytest.raises(ConfigurationError):
            build_codebook(8, 1)
        with pytest.raises(ConfigurationError):
            build_codebook(4, 3)


class TestCodebookContainer:
    def test_precoders_match_the_oracle_bitwise(self):
        # The engine picks a report's precoder as precoders[position]: row k
        # must be the matrix of key k, in every codebook, to the last bit.
        for ports, rank in sorted(SUPPORTED):
            cb = build_codebook(ports, rank)
            assert len(cb.keys) == len(cb.precoders)
            for key, w in zip(cb.keys.tolist(), cb.precoders):
                want = precoder_for(key, rank, ports)
                assert w.dtype == want.dtype and w.tobytes() == want.tobytes(), key

    def test_ports_rank_attributes(self):
        cb = build_codebook(4, 1)
        assert (cb.ports, cb.rank) == (4, 1)

    def test_built_once_and_read_only(self):
        for ports, rank in sorted(SUPPORTED):
            cb = build_codebook(ports, rank)
            assert build_codebook(ports, rank) is cb
            assert build_codebook_set(ports)[(ports, rank)] is cb
            with pytest.raises(ValueError):
                cb.precoders[0, 0, 0] = 0.0
            with pytest.raises(ValueError):
                cb.keys[0, 0] = 1
        assert build_codebook_set(4) is not build_codebook_set(4)

    def test_build_codebook_set(self):
        for ports in (2, 4):
            cbs = build_codebook_set(ports)
            assert set(cbs) == {(ports, 1), (ports, 2)}
            for (p, r), cb in cbs.items():
                assert isinstance(cb, PrecoderCodebook)
                assert len(cb.precoders) == EXPECTED_SIZES[(p, r)]
