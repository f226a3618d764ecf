"""The package-level public surface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import nrlinksim

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

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


def test_readme_export_list_matches_all():
    # The bulleted list after "The package exports" names every public
    # name once, and nothing else.
    text = README.read_text(encoding="utf-8")
    section = text.split("The package exports (`nrlinksim.__all__`):", 1)[1]
    bullets = section.strip().split("\n\n", 1)[0]
    listed = re.findall(r"`([^`]+)`", bullets)
    assert sorted(listed) == sorted(n for n in nrlinksim.__all__ if n != "__version__")


def test_import_loads_no_process_pool():
    # The pool machinery is imported when a sweep starts a pool, not with the package.
    code = "import sys, nrlinksim; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert proc.stdout.split() == ["False"]
