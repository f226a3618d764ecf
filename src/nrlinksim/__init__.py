"""Closed-loop single-user MIMO downlink link-adaptation simulator.

A compact model of the 5G NR CSI feedback loop: the UE derives RI, PMI,
and CQI from a (possibly noisy) channel estimate; the gNB follows the
report to schedule layers, precoder, MCS, and transport-block size; a
logistic block-error abstraction with stop-and-wait HARQ turns the loop
into goodput numbers.  Channels are block arrays, one ``(2, n_tx)``
matrix per coherence block.
"""

from .channel import block_rx_power, derive_seed, estimate_blocks, rice1_blocks
from .codebook import (PmiIndex, PrecoderCodebook, build_codebook,
                       build_codebook_set, precoder_for)
from .csi import (CsiConfig, CsiReport, compute_ri_blocks, make_reports,
                  select_cqi, select_pmi_blocks)
from .linalg import gamma_stack, lin_to_int_db
from .link import ThroughputStats, bler, effective_sinrs_db, mcs_from_cqi, tbs
from .scenario import (ChannelModel, NoiseModel, Scenario, ScenarioError,
                       parse_scenario, scenario_from_dict)
from .sweeps import (CqiSweepRow, CsiInspection, SnrSweepRow, run_csi_inspect,
                     run_drops, run_sweep_cqi, run_sweep_snr)
from .tables import CqiEntry, McsEntry, load_cqi_table, load_mcs_table

__version__ = "0.1.0"

__all__ = [
    "block_rx_power", "derive_seed", "estimate_blocks", "rice1_blocks",
    "PmiIndex", "PrecoderCodebook", "build_codebook", "build_codebook_set",
    "precoder_for",
    "CsiConfig", "CsiReport", "compute_ri_blocks", "make_reports",
    "select_cqi", "select_pmi_blocks",
    "gamma_stack", "lin_to_int_db",
    "ThroughputStats", "bler", "effective_sinrs_db", "mcs_from_cqi", "tbs",
    "ChannelModel", "NoiseModel", "Scenario", "ScenarioError",
    "parse_scenario", "scenario_from_dict",
    "CqiSweepRow", "CsiInspection", "SnrSweepRow", "run_csi_inspect",
    "run_drops", "run_sweep_cqi", "run_sweep_snr",
    "CqiEntry", "McsEntry", "load_cqi_table", "load_mcs_table",
    "__version__",
]
