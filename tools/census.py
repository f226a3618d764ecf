#!/usr/bin/env python3
"""Line census: which statements of ``src/nrlinksim/`` the scenario runs execute.

Run from the repository root:

    python3 tools/census.py
    python3 tools/census.py scenarios/csi_fixed_2x4.json

It runs each scenario file given, by default every ``scenarios/*.json``
and ``perfbench/scenarios/*.json``, once through ``nrlinksim.cli.main`` in
this process with ``--drops 1``, writing its CSV to a temporary directory.
The subcommand follows the file-name prefix: ``csi_`` runs ``csi``,
``cqi_sweep_`` runs ``sweep-cqi`` and any other name ``sweep-snr``.  The
package is imported from this checkout's ``src/`` alone, and its lines are
traced with ``sys.settrace`` while the runs go.

A statement is any statement inside a function body, other than a nested
``def`` or ``class``, an import or a docstring.  Module and class bodies
run on import whatever the input, so they are not counted.  The census
prints a table per module (statements, how many no run executed, how many
of those are input checks, the rest by kind), then each unexecuted
statement: input checks (``raise`` and ``_require``) apart from the rest.

It only reports.  Exit status 0, or 1 if a run exits non-zero.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PKG = SRC / "nrlinksim"
SCENARIO_DIRS = (ROOT / "scenarios", ROOT / "perfbench" / "scenarios")


class Statement(NamedTuple):
    module: str
    line: int
    kind: str        # the ast node's class name, e.g. "Return"
    lines: range     # the lines whose execution means the statement ran
    is_check: bool   # a raise or a _require call
    text: str        # its first line of source


def command_for(stem: str) -> str:
    if stem.startswith("csi_"):
        return "csi"
    if stem.startswith("cqi_sweep_"):
        return "sweep-cqi"
    return "sweep-snr"


def _header_end(node: ast.stmt) -> int:
    """Last line of a statement's own code: a compound statement's header
    ends where its first nested statement begins."""
    nested = [getattr(node, name, []) for name in ("body", "orelse", "finalbody", "handlers")]
    starts = [block[0].lineno for block in nested if block]
    return min(starts) - 1 if starts else node.end_lineno


def _is_check(node: ast.stmt) -> bool:
    if isinstance(node, ast.Raise):
        return True
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name) and node.value.func.id == "_require")


def statements(module: str) -> list[Statement]:
    """The counted statements of one module of the package."""
    source = (PKG / module).read_text(encoding="utf-8")
    tree, source_lines = ast.parse(source), source.splitlines()
    found = []

    def visit_body(body: list[ast.stmt]) -> None:
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_body(node.body)
                continue
            if isinstance(node, ast.ClassDef):
                visit_scope(node.body)
                continue
            is_docstring = (i == 0 and isinstance(node, ast.Expr)
                            and isinstance(node.value, ast.Constant)
                            and isinstance(node.value.value, str))
            # Declarations and a try header compile to no code of their own.
            if not (is_docstring or isinstance(node, (ast.Import, ast.ImportFrom, ast.Try,
                                                      ast.Global, ast.Nonlocal))):
                found.append(Statement(module, node.lineno, type(node).__name__,
                                       range(node.lineno, _header_end(node) + 1),
                                       _is_check(node), source_lines[node.lineno - 1].strip()))
            for name in ("body", "orelse", "finalbody"):
                visit_body(getattr(node, name, []))
            for handler in getattr(node, "handlers", []):
                visit_body(handler.body)

    def visit_scope(body: list[ast.stmt]) -> None:
        """A module or class body: only the functions in it are counted."""
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_body(node.body)
            elif isinstance(node, ast.ClassDef):
                visit_scope(node.body)

    visit_scope(tree.body)
    return found


def import_nrlinksim() -> None:
    """Import ``nrlinksim`` from ``<checkout>/src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import nrlinksim
    if Path(nrlinksim.__file__).resolve() != (PKG / "__init__.py").resolve():
        raise SystemExit(f"imported nrlinksim from {nrlinksim.__file__}, not from {SRC}")


def run_traced(scenarios: list[Path]) -> tuple[dict[str, set[int]], list[tuple[Path, int]]]:
    """Import the package and run each scenario through the CLI under a line
    tracer.  Returns the executed lines per module file name and each run's
    exit status.  Lines run on import are seen only if this call imports
    the package."""
    modules: dict[str, str | None] = {}   # code file name -> module file name
    executed: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in modules:
            path = Path(filename).resolve()
            modules[filename] = path.name if path.parent == PKG else None
        if modules[filename] is None:
            return None
        lines = executed.setdefault(modules[filename], set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    statuses = []
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        import_nrlinksim()
        from nrlinksim import cli
        with tempfile.TemporaryDirectory() as tmp:
            for path in scenarios:
                argv = [command_for(path.stem), "--config", str(path),
                        "--out", str(Path(tmp) / f"{path.stem}.csv")]
                if argv[0] != "csi":
                    argv += ["--drops", "1"]
                statuses.append((path, cli.main(argv)))
    finally:
        sys.settrace(previous)
    return executed, statuses


def tally(executed: dict[str, set[int]]) -> dict[str, tuple[list[Statement], list[Statement]]]:
    """Per module: all its counted statements and those that no run executed."""
    table = {}
    for path in sorted(PKG.glob("*.py")):
        stmts = statements(path.name)
        lines = executed.get(path.name, set())
        table[path.name] = (stmts, [s for s in stmts if lines.isdisjoint(s.lines)])
    return table


def report(table: dict[str, tuple[list[Statement], list[Statement]]]) -> None:
    print(f"{'module':14s} {'stmts':>6s} {'unexec':>7s} {'checks':>7s}  rest by kind")
    totals = Counter()
    for module, (stmts, missed) in table.items():
        checks = sum(s.is_check for s in missed)
        kinds = Counter(s.kind for s in missed if not s.is_check)
        totals.update(stmts=len(stmts), missed=len(missed), checks=checks)
        rest = ", ".join(f"{k} {n}" for k, n in sorted(kinds.items()))
        print(f"{module:14s} {len(stmts):6d} {len(missed):7d} {checks:7d}  {rest}")
    print(f"{'total':14s} {totals['stmts']:6d} {totals['missed']:7d} {totals['checks']:7d}")
    for title, want_check in (("unexecuted statements", False), ("unexecuted input checks", True)):
        print(f"\n{title}:")
        for module, (_, missed) in table.items():
            for s in missed:
                if s.is_check == want_check:
                    print(f"  {f'{module}:{s.line}':16s} {s.kind:10s} {s.text}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*", type=Path,
                        help="scenario files (default: every scenario of the checkout)")
    args = parser.parse_args(argv)
    scenarios = args.scenarios or sorted(p for d in SCENARIO_DIRS for p in d.glob("*.json"))
    executed, statuses = run_traced(scenarios)
    report(tally(executed))
    failed = [f"{path.name} exited {status}" for path, status in statuses if status]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
