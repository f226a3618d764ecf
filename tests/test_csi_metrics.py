"""Unit tests for the CSI metrics: the Gram condition metric and the integer-dB quantizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrlinksim.csi import (_DB_EDGES, DB_CEIL, DB_FLOOR, DET_EPS, gamma_stack,
                           lin_to_int_db)

from conftest import gram_metric_oracle, scalar_lin_to_int_db

# Reference channels used across the suite (also encoded in the golden
# scenario files).
H_2X4_REF = [[1.0, 0.5, 0.25, 0.125], [0.125, 0.25, 0.5, 1.0]]
H_2X2_REF = [[1.0, 0.5], [0.5, 1.0]]

# Their condition metrics in exact arithmetic: 16498/6201 and 82/9.
GAMMA_2X4_REF = 2.6605386228027736
GAMMA_2X2_REF = 82.0 / 9.0


def _random_channels(n, n_tx, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, 2, n_tx))
            + 1j * rng.standard_normal((n, 2, n_tx))) / np.sqrt(2.0)


def _gamma(h) -> float:
    return float(gamma_stack(np.asarray(h, dtype=complex)))


def _eigenvalue_gamma(h) -> float:
    """Independent form of the metric: ``s1/s2 + s2/s1`` from the Gram's eigenvalues."""
    h = np.asarray(h, dtype=complex)
    s2, s1 = np.linalg.eigvalsh(h @ h.conj().T)
    return s1 / s2 + s2 / s1


class TestGammaMetric:
    def test_reference_values(self):
        assert _gamma(H_2X4_REF) == pytest.approx(GAMMA_2X4_REF, rel=1e-12)
        assert _gamma(H_2X2_REF) == pytest.approx(GAMMA_2X2_REF, rel=1e-12)

    def test_identity_gram_gives_two(self):
        # Orthonormal rows: both eigenvalues equal, the metric bottoms out.
        assert _gamma(np.eye(2)) == 2.0
        assert _gamma([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]) == 2.0

    def test_rank_deficient_is_inf(self):
        assert _gamma([[1.0, 2.0], [2.0, 4.0]]) == math.inf  # rank 1
        assert _gamma(np.zeros((2, 4))) == math.inf

    def test_near_singular_threshold(self):
        # The Gram of this channel is [[1, 1], [1, 1 + d]] with det ~ d and
        # trace^2 ~ 4: at d = 2 DET_EPS the determinant sits below the
        # cutoff of 4 DET_EPS and pins to +inf; at 8 DET_EPS it is finite.
        def chan(d):
            return [[1.0, 0.0], [1.0, math.sqrt(d)]]
        assert _gamma(chan(2 * DET_EPS)) == math.inf
        assert math.isfinite(_gamma(chan(8 * DET_EPS)))

    def test_equals_eigenvalue_form(self):
        mats = _random_channels(200, 4, seed=5)
        got = gamma_stack(mats)
        for g, h in zip(got, mats):
            assert g == pytest.approx(_eigenvalue_gamma(h), rel=1e-9)

    def test_at_least_two(self):
        assert np.all(gamma_stack(_random_channels(200, 2, seed=6)) >= 2.0)


class TestGammaStack:
    def test_matches_scalar_loop(self):
        mats = _random_channels(40, 4, seed=7)
        got = gamma_stack(mats)
        want = np.array([_gamma(h) for h in mats])
        assert np.array_equal(got, want)
        # Any leading shape: blocks x subcarriers.
        assert np.array_equal(gamma_stack(mats.reshape(8, 5, 2, 4)), want.reshape(8, 5))

    def test_within_rounding_of_the_gram_oracle(self):
        # The elementwise form and the Gram matmul round apart by at most
        # about 60 ulps of (gamma + 2) gamma: det cancels (see VOTE_BAND_REL
        # in test_csi.py).
        mats = _random_channels(500, 4, seed=8)
        got = gamma_stack(mats)
        want = gram_metric_oracle(mats).gamma
        assert np.all(np.abs(got - want) <= 2.0 ** -47 * (want + 2.0) * want)

    def test_inf_where_singular(self):
        mats = np.stack([np.array([[1.0, 2.0], [2.0, 4.0]]),
                         np.array([[1.0, 0.0], [0.0, 1.0]])]).astype(complex)
        got = gamma_stack(mats)
        assert got[0] == math.inf
        assert got[1] == 2.0


class TestLinToIntDb:
    def test_zero_maps_to_floor(self):
        assert lin_to_int_db(0.0) == DB_FLOOR == -10

    def test_inf_maps_to_ceiling(self):
        assert lin_to_int_db(math.inf) == DB_CEIL == 40

    def test_examples(self):
        assert lin_to_int_db(2.5) == 4        # 10 log10 2.5 = 3.98
        assert lin_to_int_db(1.0) == 0
        assert lin_to_int_db(10.0 ** 4) == 40
        assert lin_to_int_db(1e-3) == -10     # clamped from -30
        assert lin_to_int_db(1e9) == 40       # clamped from 90

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lin_to_int_db(-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            lin_to_int_db(math.nan)
        with pytest.raises(ValueError):
            lin_to_int_db([1.0, math.nan])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            lin_to_int_db([1.0, -0.5])

    def test_array_in_array_out(self):
        got = lin_to_int_db(np.array([[0.0, 2.5], [math.inf, 1e-3]]))
        assert got.shape == (2, 2)
        assert got.tolist() == [[-10, 4], [40, -10]]

    def test_edges_are_the_smallest_ratios_of_their_db(self):
        assert len(_DB_EDGES) == DB_CEIL - DB_FLOOR
        for k, edge in zip(range(DB_FLOOR + 1, DB_CEIL + 1), _DB_EDGES.tolist()):
            assert scalar_lin_to_int_db(edge) == k
            assert scalar_lin_to_int_db(math.nextafter(edge, 0.0)) == k - 1

    def test_matches_oracle_around_every_edge(self):
        # +-1000 ulps of every edge, where a table and the rounded logarithm
        # would part if the edges were off.
        bits = _DB_EDGES.view(np.int64)[:, None] + np.arange(-1000, 1001)
        x = bits.view(np.float64).ravel()
        assert lin_to_int_db(x).tolist() == [scalar_lin_to_int_db(v) for v in x.tolist()]

    def test_matches_oracle_log_uniform(self):
        x = 10.0 ** np.random.default_rng(21).uniform(-3.0, 6.0, 100_000)
        x = np.r_[x, 0.0, math.inf, 5e-324, 1.7e308]
        assert lin_to_int_db(x).tolist() == [scalar_lin_to_int_db(v) for v in x.tolist()]


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats(min_value=0.0, allow_nan=False) | st.floats(1e-3, 1e6),
                   min_size=1, max_size=8))
def test_lin_to_int_db_matches_scalar_oracle(xs):
    assert lin_to_int_db(xs).tolist() == [scalar_lin_to_int_db(x) for x in xs]
    assert lin_to_int_db(xs[0]) == scalar_lin_to_int_db(xs[0])
