"""Span tracing of one sweep, installed from outside the package.

The tracer replaces the public functions each layer exposes with
wrappers that record a span (name, start, end, parent) and puts the
originals back afterwards; nothing in ``src/`` is edited.  A layer's
self time is its spans' duration minus the time covered by their child
spans, so the self times of one sweep add up to its root ``cli.main``
span.  Counters are taken from call arguments and results in a
``trace.bookkeeping`` span of their own, which keeps their cost out of
every layer's self time.

With ``workers > 1`` the drops run in pool processes, which the tracer
does not patch: only parent-side spans (parse, ``run_sweep_*``,
``run_drops``, the CSV write) and the counts carried back in the result
rows are recorded there.  Metrics of the worker-side layers then read 0
and are listed by :meth:`Tracer.unavailable`.
"""

from __future__ import annotations

import hashlib
import statistics
from collections import Counter
from time import perf_counter

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("channel.draw_s", "s", "lower"),
    ("channel.draw_calls", "count", "lower"),
    ("channel.draws_per_input", "ratio", "lower"),
    ("channel.estimate_s", "s", "lower"),
    ("channel.estimate_calls", "count", "lower"),
    ("channel.noise_s", "s", "lower"),
    ("csi.report_s", "s", "lower"),
    ("csi.ri_s", "s", "lower"),
    ("csi.pmi_s", "s", "lower"),
    ("csi.pmi_calls", "count", "lower"),
    ("csi.pmi_evals", "count", "lower"),
    ("csi.pmi_ns_per_eval", "ns", "lower"),
    ("csi.pmi_searches_per_input", "ratio", "lower"),
    ("codebook.build_s", "s", "lower"),
    ("codebook.build_calls", "count", "lower"),
    ("codebook.precoder_s", "s", "lower"),
    ("link.schedule_s", "s", "lower"),
    ("link.eff_sinr_s", "s", "lower"),
    ("link.eff_sinr_calls", "count", "lower"),
    ("link.harq_loop_s", "s", "lower"),
    ("link.drop_ms_p50", "ms", "lower"),
    ("link.drop_ms_p90", "ms", "lower"),
    ("link.drops", "count", "higher"),
    ("link.ack_ratio", "ratio", "higher"),
    ("sweeps.run_drops_s", "s", "lower"),
    ("sweeps.pools_started", "count", "lower"),
    ("sweeps.aggregate_s", "s", "lower"),
    ("sweeps.csv_write_s", "s", "lower"),
    ("scenario.parse_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
    ("trace.sweep_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Span name -> metric holding the sum of its self time.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "scenario.parse": "scenario.parse_s",
    "sweeps.run_sweep": "sweeps.aggregate_s",
    "sweeps.run_drops": "sweeps.run_drops_s",
    "sweeps.csv_write": "sweeps.csv_write_s",
    "link.simulate_drop": "link.harq_loop_s",
    "codebook.build": "codebook.build_s",
    "channel.draw": "channel.draw_s",
    "channel.estimate": "channel.estimate_s",
    "channel.noise": "channel.noise_s",
    "csi.report": "csi.report_s",
    "csi.ri": "csi.ri_s",
    "csi.pmi": "csi.pmi_s",
    "link.schedule": "link.schedule_s",
    "codebook.precoder": "codebook.precoder_s",
    "link.eff_sinr": "link.eff_sinr_s",
    "trace.bookkeeping": "trace.bookkeeping_s",
}
# Span name -> metric holding its call count.
CALLS = {
    "channel.draw": "channel.draw_calls",
    "channel.estimate": "channel.estimate_calls",
    "csi.pmi": "csi.pmi_calls",
    "codebook.build": "codebook.build_calls",
    "link.eff_sinr": "link.eff_sinr_calls",
}
# Metrics recorded only where drops run in this process.
WORKER_SIDE = [
    "channel.draw_s", "channel.draw_calls", "channel.draws_per_input",
    "channel.estimate_s", "channel.estimate_calls", "channel.noise_s",
    "csi.report_s", "csi.ri_s", "csi.pmi_s", "csi.pmi_calls", "csi.pmi_evals",
    "csi.pmi_ns_per_eval", "csi.pmi_searches_per_input", "codebook.build_s",
    "codebook.build_calls", "codebook.precoder_s", "link.schedule_s",
    "link.eff_sinr_s", "link.eff_sinr_calls", "link.harq_loop_s",
    "link.drop_ms_p50", "link.drop_ms_p90",
]


class Tracer:
    """Records the spans and counts of one sweep while installed."""

    def __init__(self, in_process_drops: bool):
        self.in_process_drops = in_process_drops
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.missing: list[str] = []  # targets or hooks that could not be traced
        self.pools_started = 0
        self.draw_keys: set = set()
        self.pmi_keys: set = set()
        self.pmi_evals = 0
        self.acks = self.attempts = self.drops = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        from nrlinksim import cli, csi, link, scenario, sweeps
        self._patch(cli, "main", "cli.main")
        self._patch(cli, "parse_scenario", "scenario.parse")
        for attr in ("run_sweep_cqi", "run_sweep_snr"):
            self._patch(cli, attr, "sweeps.run_sweep", self._count_rows)
        for attr in ("write_cqi_sweep_csv", "write_snr_sweep_csv"):
            self._patch(cli, attr, "sweeps.csv_write")
        self._patch(sweeps, "run_drops", "sweeps.run_drops")
        self._patch_pool(sweeps)
        if not self.in_process_drops:
            return
        self._patch(sweeps, "simulate_drop", "link.simulate_drop")
        self._patch(link, "build_codebook_set", "codebook.build")
        self._patch(scenario.Scenario, "grid_for_block", "channel.draw",
                    self._count_draw)
        self._patch(link, "estimate", "channel.estimate")
        self._patch(scenario.Scenario, "noise_for", "channel.noise")
        self._patch(link, "make_report", "csi.report")
        self._patch(csi, "compute_ri", "csi.ri")
        self._patch(csi, "select_pmi", "csi.pmi", self._count_pmi)
        self._patch(link, "schedule", "link.schedule")
        self._patch(link, "precoder_for", "codebook.precoder")
        self._patch(link, "effective_sinr_db", "link.eff_sinr")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, name: str, hook=None) -> None:
        orig = vars(owner).get(attr)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if hook is not None:
                self._bookkeep(hook, args, result)
            return result

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def _patch_pool(self, sweeps) -> None:
        base = vars(sweeps).get("ProcessPoolExecutor")
        if base is None:
            self.missing.append("sweeps.ProcessPoolExecutor")
            return
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.pools_started += 1
                super().__init__(*args, **kwargs)

        sweeps.ProcessPoolExecutor = CountingPool
        self._undo.append((sweeps, "ProcessPoolExecutor", base))

    def _bookkeep(self, hook, args, result) -> None:
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(["trace.bookkeeping", 0.0, 0.0, stack[-1] if stack else -1])
        t0 = perf_counter()
        try:
            hook(args, result)
        except Exception as e:  # a changed signature must not stop the sweep
            self.missing.append(f"{hook.__name__}: {type(e).__name__}: {e}")
        spans[idx][1] = t0
        spans[idx][2] = perf_counter()

    # -- counters taken from arguments and results --------------------

    def _count_rows(self, args, rows) -> None:
        for row in rows:
            for stats in row.drops:
                self.drops += 1
                self.acks += stats.tb_acks
                self.attempts += stats.tb_attempts

    def _count_draw(self, args, grid) -> None:
        _, drop_seed, block_id = args[:3]
        self.draw_keys.add((drop_seed, block_id))

    def _count_pmi(self, args, result) -> None:
        grid, rank, noise_var, cb = args[:4]
        mats = grid.eval_matrices() if hasattr(grid, "eval_matrices") else grid.matrices
        self.pmi_evals += mats.shape[0] * len(cb)
        digest = hashlib.sha1(grid.matrices.tobytes()).digest()
        self.pmi_keys.add((digest, float(noise_var), rank))

    # -- results ------------------------------------------------------

    def unavailable(self) -> list[str]:
        """Metrics this tracer could not record, with the reason."""
        notes = [f"not traced: {m}" for m in self.missing]
        if not self.in_process_drops:
            notes.append("recorded in worker processes, reported as 0: "
                         + ", ".join(WORKER_SIDE))
        return notes

    def self_times(self) -> Counter:
        """Self time per span name, summed over the sweep."""
        selft = Counter()
        for name, t0, t1, parent in self.spans:
            selft[name] += t1 - t0
            if parent >= 0:
                selft[self.spans[parent][0]] -= t1 - t0
        return selft

    def metrics(self, sweep_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced sweep that took ``sweep_s``."""
        m = {name: 0.0 for name, _, _ in PER_LAYER}
        for span, seconds in self.self_times().items():
            m[SELF_TIME[span]] += seconds
        calls = Counter(s[0] for s in self.spans)
        for span, metric in CALLS.items():
            m[metric] = calls[span]
        if self.draw_keys:
            m["channel.draws_per_input"] = calls["channel.draw"] / len(self.draw_keys)
        if self.pmi_keys:
            m["csi.pmi_searches_per_input"] = calls["csi.pmi"] / len(self.pmi_keys)
        m["csi.pmi_evals"] = self.pmi_evals
        if self.pmi_evals:
            m["csi.pmi_ns_per_eval"] = m["csi.pmi_s"] / self.pmi_evals * 1e9
        drop_ms = [(t1 - t0) * 1e3 for name, t0, t1, _ in self.spans
                   if name == "link.simulate_drop"]
        if len(drop_ms) >= 2:
            m["link.drop_ms_p50"] = statistics.median(drop_ms)
            m["link.drop_ms_p90"] = statistics.quantiles(drop_ms, n=10)[-1]
        m["link.drops"] = self.drops
        if self.attempts:
            m["link.ack_ratio"] = self.acks / self.attempts
        m["sweeps.pools_started"] = self.pools_started
        m["trace.sweep_s"] = sweep_s
        return m
