"""Shared fixtures: the golden scenario runs used across the test suite.

Each golden sweep is executed once per session and handed out as
``(rows, elapsed_seconds)`` so the acceptance tests can assert both the
curve shape and the measured wall-clock cost while other tests reuse the
same results for free.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from nrlinksim.link import ThroughputStats, drop_channel, drop_csi, run_harq
from nrlinksim.scenario import Scenario, parse_scenario
from nrlinksim.sweeps import run_sweep_cqi, run_sweep_snr

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / name


def simulate_drop(scenario: Scenario, seed: int) -> ThroughputStats:
    """One closed-loop drop at the scenario's own noise point and CQI setting:
    the three engine phases run back to back."""
    return run_harq(scenario, drop_csi(scenario, drop_channel(scenario, seed)))


def _timed_cqi(name: str):
    scenario = parse_scenario(scenario_path(name))
    t0 = time.perf_counter()
    rows = run_sweep_cqi(scenario)
    return rows, time.perf_counter() - t0


def _timed_snr(name: str):
    scenario = parse_scenario(scenario_path(name))
    t0 = time.perf_counter()
    rows = run_sweep_snr(scenario)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cqi_fixed_2x4():
    """Forced-CQI sweep, fixed 2x4 channel, rank forced to 2, noise free."""
    return _timed_cqi("cqi_sweep_fixed_2x4.json")


@pytest.fixture(scope="session")
def cqi_rice_2x4():
    """Forced-CQI sweep, Rician 2x4 fading, closed-loop rank, noise free."""
    return _timed_cqi("cqi_sweep_rice1_2x4.json")


@pytest.fixture(scope="session")
def snr_rice_2x4():
    """Closed-loop SNR sweep, Rician 2x4 fading."""
    return _timed_snr("snr_sweep_rice1_2x4.json")


@pytest.fixture(scope="session")
def snr_rice_2x2():
    """Closed-loop SNR sweep, Rician 2x2 fading (same seed as the 2x4 run)."""
    return _timed_snr("snr_sweep_rice1_2x2.json")


@pytest.fixture(scope="session")
def snr_fixed_2x4():
    """Closed-loop SNR sweep on the fixed 2x4 matrix (rank forced to 2)."""
    return _timed_snr("snr_sweep_fixed_2x4.json")


@pytest.fixture(scope="session")
def snr_fixed_2x2():
    """Closed-loop SNR sweep on the fixed 2x2 matrix."""
    return _timed_snr("snr_sweep_fixed_2x2.json")
