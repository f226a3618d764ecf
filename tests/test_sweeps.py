"""Unit tests for the sweep drivers, CSV writers, and the CLI."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nrlinksim import cli, csi, link, sweeps
from nrlinksim.channel import derive_seed
from nrlinksim.link import drop_channel, drop_csi, mcs_from_cqi, run_harq, tbs
from nrlinksim.scenario import ScenarioError, parse_scenario, scenario_from_dict
from nrlinksim.sweeps import (run_csi_inspect, run_drops, run_sweep_cqi,
                              run_sweep_snr, write_codebook_csv,
                              write_cqi_sweep_csv, write_csi_csv,
                              write_gnuplot_xy, write_snr_sweep_csv)

from conftest import SCENARIO_DIR, scenario_path

H_2X4_REF = [[1.0, 0.5, 0.25, 0.125], [0.125, 0.25, 0.5, 1.0]]
# Rank 1 in exact arithmetic and in float: the second row is half the first.
H_RANK1 = [[1.0, 0.5, 0.25, 0.125], [0.5, 0.25, 0.125, 0.0625]]

# No grant can outrun the largest transport block the tables allow.
GOODPUT_BOUND_MBPS = tbs(28, 2, 106) / 0.0005 / 1e6

# Every Rician scenario, the benchmark's own included.
RICE1_SCENARIOS = sorted(p for d in (SCENARIO_DIR, SCENARIO_DIR.parent / "perfbench" / "scenarios")
                         for p in d.glob("*rice1*.json"))


def _small_fixed(**extra):
    cfg = {
        "channel": {"type": "fixed", "matrix": H_2X4_REF},
        "noise": {"mode": "noise_free"},
        "n_slots": 60, "n_drops": 3, "seed": 5,
    }
    cfg.update(extra)
    return scenario_from_dict(cfg)


def _small_rice(**extra):
    cfg = {
        "channel": {"type": "rice1", "k_factor": 1.0, "coherence_slots": 10},
        "noise": {"mode": "snr", "snr_db": 8},
        "n_tx": 4, "n_slots": 100, "n_drops": 4, "seed": 9,
    }
    cfg.update(extra)
    return scenario_from_dict(cfg)


class TestRunDrops:
    def test_sequential_deterministic(self):
        sc = _small_rice()
        assert run_drops(sc, 1, run_harq) == run_drops(sc, 1, run_harq)

    def test_drops_differ(self):
        stats = run_drops(_small_rice(), 1, run_harq)
        assert len({s.goodput_bps for [s] in stats}) > 1

    def test_workers_match_sequential(self):
        sc = _small_rice()
        assert run_drops(sc, 2, run_harq) == run_drops(sc, 1, run_harq)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_drops(_small_rice(), workers, run_harq)

    @pytest.mark.parametrize("small", [_small_rice, _small_fixed], ids=["rice1", "fixed"])
    @pytest.mark.parametrize("sweep, noise", [
        (run_sweep_cqi, {"mode": "snr", "snr_db": 8}),
        (run_sweep_snr, {"mode": "snr_sweep", "snr_db_list": [0, 8, 16]}),
    ], ids=["sweep-cqi", "sweep-snr"])
    def test_workers_match_sequential_in_one_pool(self, monkeypatch, sweep, noise, small):
        started = _count_pools(monkeypatch)
        sc = small(n_drops=2, n_slots=40, noise=noise)
        assert sweep(sc, workers=2) == sweep(sc, workers=1)
        assert len(started) == 1

    def test_pool_has_no_more_processes_than_drops(self, monkeypatch):
        # Under fork a pool starts all its processes at the first submit.
        started = _count_pools(monkeypatch)
        sc = _small_rice(n_drops=2, n_slots=40)
        assert run_drops(sc, 3, run_harq) == run_drops(sc, 1, run_harq)
        assert [kwargs["max_workers"] for kwargs in started] == [2]

    @pytest.mark.parametrize("small", [_small_rice, _small_fixed], ids=["rice1", "fixed"])
    def test_each_drop_draws_its_ack_variates_once(self, monkeypatch, small):
        calls, real = [], link.ack_draws

        def counted(seed, n_slots):
            calls.append(seed)
            return real(seed, n_slots)

        monkeypatch.setattr(link, "ack_draws", counted)
        monkeypatch.setattr(sweeps, "ack_draws", counted)
        sc = small(n_drops=3, n_slots=40)
        run_sweep_cqi(sc)
        assert calls == [derive_seed(sc.seed, d) for d in range(3)]


def _count_pools(monkeypatch) -> list:
    """Patch ``sweeps.ProcessPoolExecutor`` to log each pool it starts."""
    started = []

    class CountingPool(sweeps.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", CountingPool)
    return started


def _csi_of(scenario, csi, u):
    return csi, u


class TestSharedCsi:
    """A fixed channel estimated without error has the same CSI in every
    drop: a sweep computes it once and gives each drop its ACK draws."""

    def test_one_read_only_csi_serves_every_drop(self):
        sc = _small_fixed()
        assert sc.drop_invariant_csi
        seeds = [derive_seed(sc.seed, d) for d in range(sc.n_drops)]
        runs = run_drops(sc, 1, _csi_of)
        shared = runs[0][0]
        for (csi, u), seed in zip(runs, seeds):
            assert csi is shared
            assert u.tobytes() == link.ack_draws(seed, sc.n_slots).tobytes()
        assert len({u.tobytes() for _, u in runs}) == len(seeds)
        for a in (shared.chan.h, shared.chan.slot_report, shared.chan.pair_block,
                  shared.reports.cqi, shared.reports.pmi, shared.pair_eff_db):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0

    @pytest.mark.parametrize("sc", [
        *(replace(parse_scenario(path), n_drops=3, n_slots=200) for path in RICE1_SCENARIOS),
        _small_fixed(n_drops=3, est_error_var=1.0, noise={"mode": "snr", "snr_db": 8}),
    ], ids=[*(p.stem for p in RICE1_SCENARIOS), "fixed_esterr"])
    def test_drop_dependent_csi_is_computed_per_drop(self, sc):
        assert not sc.drop_invariant_csi
        got = [csi.reports for csi, _ in run_drops(sc, 1, _csi_of)]
        for d, reports in enumerate(got):
            chan = drop_channel(sc, derive_seed(sc.seed, d))
            for col, want in zip(reports, drop_csi(sc, chan).reports):
                assert col.shape == want.shape and col.tobytes() == want.tobytes()
        # Every drop reports something of its own.
        assert len({tuple(col.tobytes() for col in r) for r in got}) == len(got)


SWEEP_SCENARIOS = ["cqi_sweep_fixed_2x4.json", "cqi_sweep_rice1_2x4.json",
                   "snr_sweep_fixed_2x2.json", "snr_sweep_fixed_2x4.json",
                   "snr_sweep_rice1_2x2.json", "snr_sweep_rice1_2x4.json"]


@pytest.mark.parametrize("name", SWEEP_SCENARIOS)
def test_one_point_per_harq_pass_changes_nothing(name, monkeypatch):
    # Two drops of each golden sweep, all points in one HARQ pass per drop,
    # then one point per pass: every drop's statistics are the same.  At
    # budget 1 the CSI also runs one block per search and one pair per pass.
    sc = replace(parse_scenario(scenario_path(name)), n_drops=2)
    sweep = run_sweep_snr if sc.noise.mode == "snr_sweep" else run_sweep_cqi
    passes = []

    def counted(scenario, acked, *rest):
        passes.append(len(acked))
        return point_stats(scenario, acked, *rest)

    point_stats = link._point_stats
    monkeypatch.setattr(link, "_point_stats", counted)
    runs = []
    for budget in (1 << 40, 1):
        monkeypatch.setattr(csi, "BATCH_ELEMS", budget)
        runs.append([row.drops for row in sweep(sc)])
    n_points = len(runs[0])
    assert passes == [n_points] * 2 + [1] * n_points * 2
    assert runs[1] == runs[0]


class TestRunSweepCqi:
    def test_row_contract(self):
        rows = run_sweep_cqi(_small_fixed())
        assert [r.cqi for r in rows] == list(range(16))
        for r in rows:
            assert r.mcs == mcs_from_cqi(r.cqi)
            assert len(r.drops) == 3
            g = [d.goodput_mbps for d in r.drops]
            assert r.goodput_mbps_mean == pytest.approx(np.mean(g))
            assert r.goodput_mbps_std == pytest.approx(np.std(g, ddof=1))
            assert 0.0 <= r.mean_bler <= 1.0

    def test_low_cqi_rows_share_mcs(self):
        rows = run_sweep_cqi(_small_fixed())
        assert rows[0].mcs == rows[1].mcs == rows[2].mcs == 0

    def test_rejects_snr_sweep_scenario(self):
        sc = _small_fixed(noise={"mode": "snr_sweep", "snr_db_list": [0, 10]})
        with pytest.raises(ScenarioError):
            run_sweep_cqi(sc)

    def test_goodput_bound(self):
        for r in run_sweep_cqi(_small_fixed()):
            assert r.goodput_mbps_mean <= GOODPUT_BOUND_MBPS


class TestRunSweepSnr:
    def test_row_contract(self):
        sc = _small_rice(noise={"mode": "snr_sweep", "snr_db_list": [0, 6, 12]})
        rows = run_sweep_snr(sc)
        assert [r.snr_db for r in rows] == [0.0, 6.0, 12.0]
        for r in rows:
            assert len(r.drops) == 4
            assert 1.0 <= r.mean_ri <= 2.0
            assert 0.0 <= r.mean_cqi <= 15.0
            assert 0.0 <= r.mean_mcs <= 28.0
            assert r.goodput_mbps <= GOODPUT_BOUND_MBPS

    def test_requires_snr_sweep_mode(self):
        with pytest.raises(ScenarioError):
            run_sweep_snr(_small_rice())

    def test_common_random_numbers(self):
        # The same drop index reuses the same fading across sweep points.
        sc = _small_rice(noise={"mode": "snr_sweep", "snr_db_list": [4, 4]})
        rows = run_sweep_snr(sc)
        assert rows[0].drops == rows[1].drops


@pytest.mark.numpy_bits
@pytest.mark.parametrize("n_drops", [1, 5, 20])
def test_row_means_are_the_per_drop_means_bitwise(n_drops):
    # Each row's means and goodput std have the bits of np.mean and
    # np.std(ddof=1) over that point's drops.  At 20 drops NumPy sums a
    # 1-D array pairwise, in eight partial sums: a reduction over the drops
    # axis of a (drops, points) table, which sums row by row, rounds apart.
    snr = _small_rice(noise={"mode": "snr_sweep", "snr_db_list": [0, 4, 8, 12, 16]},
                      n_drops=n_drops, n_slots=40)
    cqi = _small_fixed(noise={"mode": "variance", "variance": 0.05}, n_drops=n_drops,
                       n_slots=40)
    cases = [(row, ("goodput_mbps", "mean_ri", "mean_cqi", "mean_mcs", "mean_bler"),
              (row.goodput_mbps, row.mean_ri, row.mean_cqi, row.mean_mcs, row.mean_bler),
              row.goodput_mbps_std) for row in run_sweep_snr(snr)]
    cases += [(row, ("goodput_mbps", "mean_bler"), (row.goodput_mbps_mean, row.mean_bler),
               row.goodput_mbps_std) for row in run_sweep_cqi(cqi)]
    for row, fields, means, std in cases:
        assert len(row.drops) == n_drops
        per_drop = {f: [getattr(d, f) for d in row.drops] for f in fields}
        for field, mean in zip(fields, means):
            assert mean.hex() == float(np.mean(per_drop[field])).hex(), (row, field)
        goodput = per_drop["goodput_mbps"]
        want = float(np.std(goodput, ddof=1)) if n_drops > 1 else 0.0
        assert std.hex() == want.hex(), row
    if n_drops == 20:
        # The drops differ enough that the two summation orders can part.
        assert len({d.goodput_mbps for row, *_ in cases for d in row.drops}) > 20


class TestRunCsiInspect:
    def test_reference_golden(self):
        insp = run_csi_inspect(parse_scenario(scenario_path("csi_fixed_2x4.json")))
        assert (insp.ri, insp.pmi, insp.wideband_sinr_db, insp.cqi) == \
            (1, (0, 0, 0, 0), 12, 10)
        assert insp.gamma_min == pytest.approx(2.6605386228027736, rel=1e-12)
        assert insp.gamma_min == insp.gamma_median == insp.gamma_max

    def test_orthogonal_rows_channel(self):
        insp = run_csi_inspect(scenario_from_dict({
            "channel": {"type": "fixed",
                        "matrix": [[1, 0, 0, 0], [0, 1, 0, 0]]},
            "noise": {"mode": "variance", "variance": 0.1},
        }))
        assert insp.ri == 2
        assert insp.pmi == (0, 0, 1, 0)
        assert insp.wideband_sinr_db == 4
        assert insp.gamma_max == 2.0

    def test_zero_channel(self):
        insp = run_csi_inspect(scenario_from_dict({
            "channel": {"type": "fixed",
                        "matrix": [[0, 0, 0, 0], [0, 0, 0, 0]]},
            "noise": {"mode": "variance", "variance": 0.1},
        }))
        assert insp.ri == 1
        assert insp.cqi == 4
        assert insp.wideband_sinr_db == -10
        assert insp.gamma_max == math.inf

    def test_rejects_snr_sweep(self):
        sc = _small_rice(noise={"mode": "snr_sweep", "snr_db_list": [0]})
        with pytest.raises(ScenarioError):
            run_csi_inspect(sc)


class TestHighSnrReports:
    """As the noise vanishes, reports saturate and stay put; they must not
    collapse, on a full-rank or an exactly rank-1 channel at either rank."""

    HIGH_SNR_DB = [100, 160, 180, 300, 1000, 3000]

    @staticmethod
    def _scenario(matrix, ri, noise):
        return scenario_from_dict({
            "channel": {"type": "fixed", "matrix": matrix}, "noise": noise,
            "csi": {"force_ri": ri}, "n_slots": 20, "n_drops": 1,
        })

    @pytest.mark.parametrize("matrix,ri,snrs", [
        pytest.param(H_2X4_REF, 1, HIGH_SNR_DB, id="full_rank-1"),
        pytest.param(H_2X4_REF, 2, HIGH_SNR_DB, id="full_rank-2"),
        pytest.param(H_RANK1, 1, HIGH_SNR_DB, id="rank1-1"),
        pytest.param(H_RANK1, 2, HIGH_SNR_DB, id="rank1-2"),
        # At 3040 dB the noise variance is 3.3e-299, a normal float that every
        # parse rule accepts.
        pytest.param([[1000 * x for x in row] for row in H_2X4_REF], 2, [100, 3000, 3040],
                     id="x1000_past_the_float_range-2", marks=pytest.mark.xfail(
                         strict=True, raises=(RuntimeWarning, AssertionError),
                         reason="the rank-2 search's x /= noise_var in _split_batch overflows "
                                "at 3040 dB on a channel of power 3.3e5, and the report moves "
                                "from PMI row 0 to row 16, key (4, 0, 0, 0); exact block "
                                "scaling and a parse-time range check, ROADMAP item 5 (b)/(c), "
                                "would mend it")),
    ])
    def test_sweep_snr(self, matrix, ri, snrs):
        sc = self._scenario(matrix, ri, {"mode": "snr_sweep", "snr_db_list": snrs})
        chan = drop_channel(sc, derive_seed(sc.seed, 0))
        reports = drop_csi(sc, chan).reports
        assert reports.pmi.shape == reports.cqi.shape == (len(snrs), 1)
        assert reports.pmi.tolist() == [reports.pmi[0].tolist()] * len(snrs)
        assert reports.cqi.tolist() == [reports.cqi[0].tolist()] * len(snrs)
        rows = run_sweep_snr(sc)
        assert [r.drops for r in rows] == [rows[0].drops] * len(rows)

    @pytest.mark.parametrize("ri", [1, 2])
    @pytest.mark.parametrize("matrix", [H_2X4_REF, H_RANK1], ids=["full_rank", "rank1"])
    def test_csi(self, matrix, ri):
        def report(variance):
            sc = self._scenario(matrix, ri, {"mode": "variance", "variance": variance})
            insp = run_csi_inspect(sc)
            return insp.ri, insp.pmi, insp.wideband_sinr_db, insp.cqi

        want = report(1e-15)
        assert want[0] == ri
        assert report(1e-18) == want
        assert report(1e-300) == want


class TestCsvWriters:
    def test_cqi_sweep_csv(self):
        rows = run_sweep_cqi(_small_fixed(n_slots=20, n_drops=2))
        buf = io.StringIO()
        write_cqi_sweep_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "cqi,mcs,goodput_mbps_mean,goodput_mbps_std,mean_bler"
        assert len(lines) == 17
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_snr_sweep_csv(self):
        sc = _small_rice(noise={"mode": "snr_sweep", "snr_db_list": [2, 4]},
                         n_slots=40, n_drops=2)
        buf = io.StringIO()
        write_snr_sweep_csv(run_sweep_snr(sc), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "snr_db,mean_ri,mean_cqi,mean_mcs,mean_bler,goodput_mbps"
        assert len(lines) == 3
        assert lines[1].startswith("2.000000,")

    def test_csi_csv_formats_inf(self):
        insp = run_csi_inspect(scenario_from_dict({
            "channel": {"type": "fixed",
                        "matrix": [[0, 0, 0, 0], [0, 0, 0, 0]]},
            "noise": {"mode": "variance", "variance": 0.1},
        }))
        buf = io.StringIO()
        write_csi_csv(insp, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "ri,i11,i12,i13,i2,sinr_db,cqi,gamma_min,gamma_median,gamma_max"
        assert lines[1] == "1,0,0,0,0,-10,4,inf,inf,inf"

    def test_csi_csv_reference_row(self):
        insp = run_csi_inspect(parse_scenario(scenario_path("csi_fixed_2x4.json")))
        buf = io.StringIO()
        write_csi_csv(insp, buf)
        assert buf.getvalue().splitlines()[1] == \
            "1,0,0,0,0,12,10,2.660539,2.660539,2.660539"

    @pytest.mark.parametrize("ports,rank,count", [(4, 1, 32), (4, 2, 32),
                                                  (2, 1, 4), (2, 2, 2)])
    def test_codebook_csv(self, ports, rank, count):
        buf = io.StringIO()
        write_codebook_csv(ports, rank, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == count + 1
        header = lines[0].split(",")
        assert header[:4] == ["i11", "i12", "i13", "i2"]
        assert len(header) == 4 + 2 * ports * rank
        # first entry of the 4-port rank-1 book is the all-ones beam / 2
        if (ports, rank) == (4, 1):
            cells = lines[1].split(",")
            assert cells[:4] == ["0", "0", "0", "0"]
            assert cells[4:] == ["0.500000000000", "0.000000000000"] * 4

    def test_gnuplot_writer(self):
        buf = io.StringIO()
        write_gnuplot_xy([(0, 1.25), (2.0, 3.5), (-math.inf, math.nan)], buf)
        assert buf.getvalue() == ("# x goodput_mbps\n0 1.250000\n2.000000 3.500000\n"
                                  "-inf nan\n")


class TestCli:
    def test_codebook_command(self, tmp_path):
        out = tmp_path / "cb.csv"
        assert cli.main(["codebook", "--ports", "4", "--rank", "2",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 33

    def test_parser_is_built_once_per_process(self, tmp_path):
        # Each command, a rejected one included, prints the same bytes on
        # the shared argument tree as on a freshly built one.
        snr = tmp_path / "snr.json"
        snr.write_text(json.dumps(dict(json.loads(
            scenario_path("snr_sweep_fixed_2x2.json").read_text()), n_drops=2, n_slots=40)))
        commands = [["csi", "--config", str(scenario_path("csi_fixed_2x4.json"))],
                    ["sweep-snr", "--config", str(snr)],
                    ["sweep-snr", "--config", str(snr), "--workers", "0"],
                    ["codebook", "--ports", "2", "--rank", "1"]]

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    status = cli.main(argv)
                except SystemExit as e:
                    status = e.code
            return status, out.getvalue(), err.getvalue()

        fresh = []
        for argv in commands:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        cli._build_parser.cache_clear()
        assert [run(argv) for argv in commands] == fresh
        assert cli._build_parser.cache_info().misses == 1
        assert [status for status, _, _ in fresh] == [0, 0, 2, 0]
        assert "--workers: must be >= 1" in fresh[2][2]

    def test_csi_command_stdout(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(["csi", "--config",
                           str(scenario_path("csi_fixed_2x4.json"))])
        assert rc == 0
        assert buf.getvalue().splitlines()[1].startswith("1,0,0,0,0,12,10,")

    @pytest.mark.parametrize("channel, est_error_var, row", [
        (None, None, "1,0,0,0,0,12,10,2.660539,2.660539,2.660539"),
        ({"type": "rice1", "k_factor": 1.0}, 0.01,
         "1,7,0,0,3,17,13,2.798181,3.329114,4.177499"),
    ], ids=["csi_fixed_2x4", "rice1_esterr"])
    def test_csi_command_estimates_once(self, tmp_path, monkeypatch, channel, est_error_var,
                                        row):
        # One estimate draw serves both the report and the condition
        # metric; the rows are each scenario's reference output.
        doc = json.loads(scenario_path("csi_fixed_2x4.json").read_text())
        if channel is not None:
            doc.update(channel=channel, est_error_var=est_error_var)
        config = tmp_path / "csi.json"
        config.write_text(json.dumps(doc))
        calls = []
        for module in (link, sweeps):
            def counted(*args, _real=module.estimate_blocks, **kwargs):
                calls.append(args)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, "estimate_blocks", counted)
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(["csi", "--config", str(config)]) == 0
        assert buf.getvalue() == \
            "ri,i11,i12,i13,i2,sinr_db,cqi,gamma_min,gamma_median,gamma_max\n" + row + "\n"
        assert len(calls) == 1

    def test_sweep_cqi_with_overrides(self, tmp_path):
        out = tmp_path / "cqi.csv"
        rc = cli.main(["sweep-cqi", "--config",
                       str(scenario_path("cqi_sweep_fixed_2x4.json")),
                       "--drops", "2", "--slots", "40", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 17

    def test_sweep_snr_gnuplot_variant(self, tmp_path):
        out, gp = tmp_path / "snr.csv", tmp_path / "snr.dat"
        rc = cli.main(["sweep-snr", "--config",
                       str(scenario_path("snr_sweep_rice1_2x4.json")),
                       "--drops", "2", "--slots", "60",
                       "--out", str(out), "--gnuplot", str(gp)])
        assert rc == 0
        csv_rows = out.read_text().splitlines()[1:]
        dat_rows = gp.read_text().splitlines()
        assert dat_rows[0] == "# x goodput_mbps"
        assert len(dat_rows) == len(csv_rows) + 1
        for csv_row, dat_row in zip(csv_rows, dat_rows[1:]):
            cells = csv_row.split(",")
            assert dat_row == f"{cells[0]} {cells[5]}"

    def test_seed_override_changes_output(self, tmp_path):
        args = ["sweep-cqi", "--config",
                str(scenario_path("cqi_sweep_rice1_2x4.json")),
                "--drops", "1", "--slots", "30"]
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b), "--seed", "123"]) == 0
        assert cli.main(args + ["--out", str(c), "--seed", "123"]) == 0
        assert a.read_bytes() != b.read_bytes()
        assert b.read_bytes() == c.read_bytes()

    @pytest.mark.parametrize("name", ["snr_sweep_rice1_2x4.json", "snr_sweep_fixed_2x2.json"])
    def test_workers_flag_matches_sequential(self, tmp_path, monkeypatch, name):
        started = _count_pools(monkeypatch)
        args = ["sweep-snr", "--config", str(scenario_path(name)),
                "--drops", "2", "--slots", "40"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(started) == 1

    LARGE_CHUNKS = ("import sys; from nrlinksim import cli, csi; csi.BATCH_ELEMS = 1 << 19; "
                    "sys.exit(cli.main(sys.argv[1:]))")

    @pytest.mark.numpy_bits
    def test_blas_threads_change_no_byte(self, tmp_path):
        # The PMI search and the pair pass take their effective channels from
        # BLAS products, which a threaded BLAS splits among its threads: a
        # full-band sweep at one and two BLAS threads, and at two workers,
        # writes the same CSV.  Sixteen times the usual budget makes each
        # product large enough for OpenBLAS to split (above 2^18
        # multiply-adds); chunking itself changes no byte.
        config = tmp_path / "esterr.json"
        config.write_text(json.dumps({
            "n_tx": 4, "n_prb": 106, "n_slots": 200, "n_drops": 2, "csi_period": 10,
            "seed": 9, "est_error_var": 0.01,
            "channel": {"type": "rice1", "k_factor": 1.0, "coherence_slots": 10},
            "noise": {"mode": "snr_sweep", "snr_db_list": [0, 10, 20]}}))
        src = str(Path(sweeps.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        runs = [("1", []), ("2", []), ("1", ["--workers", "2"])]
        for k, (threads, extra) in enumerate(runs):
            subprocess.run([sys.executable, "-c", self.LARGE_CHUNKS, "sweep-snr",
                            "--config", str(config), "--out", str(tmp_path / f"{k}.csv"), *extra],
                           env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True)
        csvs = [(tmp_path / f"{k}.csv").read_bytes() for k in range(len(runs))]
        assert csvs[0].count(b"\n") == 4
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, workers, tmp_path):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.main(["sweep-cqi", "--config",
                      str(scenario_path("cqi_sweep_fixed_2x4.json")),
                      "--workers", workers, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--workers" in err.getvalue()
        assert not (tmp_path / "x.csv").exists()

    def test_slots_beyond_bound_rejected(self, tmp_path):
        # Refused when the override is applied, before any slot array exists.
        err = io.StringIO()
        with redirect_stderr(err):
            rc = cli.main(["sweep-cqi", "--config",
                           str(scenario_path("cqi_sweep_fixed_2x4.json")),
                           "--slots", "10000000000", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "scenario.n_slots" in err.getvalue()
        assert not (tmp_path / "x.csv").exists()

    def test_slot_count_beyond_int64_rejected(self, tmp_path):
        # Refused at parse; the drop would otherwise overflow int64 mid-run.
        cfg = tmp_path / "big.json"
        cfg.write_text('{"channel": "rice1", "n_slots": 20, "n_drops": 1,'
                       ' "csi_period": 100000000000000000000}', encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            rc = cli.main(["sweep-cqi", "--config", str(cfg),
                           "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "scenario.csi_period" in err.getvalue()
        assert not (tmp_path / "x.csv").exists()

    def test_harq_pairs_beyond_bound_rejected(self, tmp_path):
        # Runs at 20 slots; at 1024 its grants could meet n_slots^2 / 2
        # (report, block) pairs, refused when the override is applied.
        cfg = tmp_path / "long_harq.json"
        cfg.write_text('{"channel": {"type": "rice1", "coherence_slots": 1}, "n_slots": 20,'
                       ' "n_drops": 1, "csi_period": 1, "max_harq_tx": 2000}',
                       encoding="utf-8")
        args = ["sweep-cqi", "--config", str(cfg)]
        assert cli.main(args + ["--out", str(tmp_path / "ok.csv")]) == 0
        err = io.StringIO()
        with redirect_stderr(err):
            rc = cli.main(args + ["--slots", "1024", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "scenario.max_harq_tx" in err.getvalue()
        assert not (tmp_path / "x.csv").exists()

    def test_missing_config_fails(self, tmp_path):
        err = io.StringIO()
        with redirect_stderr(err):
            rc = cli.main(["csi", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "nrlinksim: error:" in err.getvalue()

    def test_invalid_config_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"channel": "rice1", "n_tx": 3}', encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            rc = cli.main(["sweep-cqi", "--config", str(bad)])
        assert rc == 2
        assert "n_tx" in err.getvalue()

    @pytest.mark.parametrize("command,noise", [
        ("csi", '{"mode": "snr", "snr_db": 4000}'),
        ("sweep-cqi", '{"mode": "snr", "snr_db": 4000}'),
        ("sweep-snr", '{"mode": "snr_sweep", "snr_db_list": [10, 4000]}'),
    ])
    def test_snr_beyond_float_range_fails(self, tmp_path, command, noise):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"channel": "rice1", "noise": {noise}}}', encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            rc = cli.main([command, "--config", str(bad)])
        assert rc == 2
        assert "noise.snr_db" in err.getvalue()

    def test_noise_key_of_another_mode_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"channel": "rice1", "noise": {"snr_db": 10}}', encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            rc = cli.main(["sweep-cqi", "--config", str(bad),
                           "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "noise.snr_db applies only to mode 'snr'" in err.getvalue()
        assert not (tmp_path / "x.csv").exists()

    def test_bad_arguments_exit_nonzero(self):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit):
            cli.main(["codebook", "--ports", "3", "--rank", "1"])


class TestGoldenCurves:
    def test_fixed_pair_2x4_beats_2x2_at_high_snr(self, snr_fixed_2x4,
                                                  snr_fixed_2x2):
        rows24, _ = snr_fixed_2x4
        rows22, _ = snr_fixed_2x2
        by_snr24 = {r.snr_db: r.goodput_mbps for r in rows24}
        by_snr22 = {r.snr_db: r.goodput_mbps for r in rows22}
        assert by_snr24[16.0] > by_snr22[16.0]

    def test_rice_cqi_sweep_low_rows_identical(self, cqi_rice_2x4):
        rows, _ = cqi_rice_2x4
        g = [r.goodput_mbps_mean for r in rows]
        assert g[0] == g[1] == g[2]

    def test_golden_goodput_bound(self, cqi_fixed_2x4, cqi_rice_2x4,
                                  snr_rice_2x4, snr_rice_2x2):
        for rows, _ in (cqi_fixed_2x4, cqi_rice_2x4):
            for r in rows:
                assert r.goodput_mbps_mean <= GOODPUT_BOUND_MBPS
        for rows, _ in (snr_rice_2x4, snr_rice_2x2):
            for r in rows:
                assert r.goodput_mbps <= GOODPUT_BOUND_MBPS

    @pytest.mark.xfail(
        strict=True,
        reason="closed-loop reporting at 10 dB SNR saturates ~12% below the "
               "forced-CQI noise-free optimum under the calibrated per-rank "
               "SINR ceilings; the qualitative peak is reproduced but not "
               "within 10%")
    def test_snr10_goodput_near_noise_free_peak(self, snr_rice_2x4,
                                                cqi_rice_2x4):
        snr_rows, _ = snr_rice_2x4
        cqi_rows, _ = cqi_rice_2x4
        at_10 = next(r.goodput_mbps for r in snr_rows if r.snr_db == 10.0)
        forced_peak = max(r.goodput_mbps_mean for r in cqi_rows)
        assert abs(at_10 - forced_peak) / forced_peak < 0.10
