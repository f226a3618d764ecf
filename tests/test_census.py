"""The line census tool, on one golden scenario."""

import importlib.util
import inspect
from pathlib import Path

from nrlinksim import csi, sweeps

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census", TOOL)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def _body_lines(fn) -> range:
    lines, first = inspect.getsourcelines(fn)
    return range(first + 1, first + len(lines))


def test_census_of_the_csi_scenario(capsys):
    assert census.main([str(ROOT / "scenarios" / "csi_fixed_2x4.json")]) == 0
    reported = {(loc.split(":")[0], int(loc.split(":")[1]))
                for loc in (line.split()[0] for line in capsys.readouterr().out.splitlines()
                            if line.startswith("  "))}
    stmts = census.statements("csi.py")
    make_reports = [s.line for s in stmts if s.line in _body_lines(csi.make_reports)]
    assert any(("csi.py", line) not in reported for line in make_reports)
    gnuplot = [s.line for s in census.statements("sweeps.py")
               if s.line in _body_lines(sweeps.write_gnuplot_xy)]
    assert gnuplot and all(("sweeps.py", line) in reported for line in gnuplot)
