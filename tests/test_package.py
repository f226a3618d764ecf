"""The package-level public surface."""

import nrlinksim

# The setup probe of perfbench/run.py calls these from the package, and runs
# with check=True: a missing one would crash the benchmark, not just fail here.
PROBE_NAMES = ("parse_scenario", "build_codebook_set", "load_mcs_table", "load_cqi_table")


def test_every_public_name_resolves():
    missing = [name for name in nrlinksim.__all__ if not hasattr(nrlinksim, name)]
    assert missing == []
    assert len(set(nrlinksim.__all__)) == len(nrlinksim.__all__)


def test_setup_probe_names_are_public():
    for name in PROBE_NAMES:
        assert name in nrlinksim.__all__
        assert callable(getattr(nrlinksim, name))
