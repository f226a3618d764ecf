"""Unit tests for the sweep drivers, CSV writers, and the CLI."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from nrlinksim import cli, sweeps
from nrlinksim.channel import derive_seed
from nrlinksim.link import drop_channel, drop_csi, mcs_from_cqi, tbs
from nrlinksim.scenario import ScenarioError, parse_scenario, scenario_from_dict
from nrlinksim.sweeps import (run_csi_inspect, run_drops, run_sweep_cqi,
                              run_sweep_snr, write_codebook_csv,
                              write_cqi_sweep_csv, write_csi_csv,
                              write_gnuplot_xy, write_snr_sweep_csv)

from conftest import scenario_path, simulate_drop

H_2X4_REF = [[1.0, 0.5, 0.25, 0.125], [0.125, 0.25, 0.5, 1.0]]
# Rank 1 in exact arithmetic and in float: the second row is half the first.
H_RANK1 = [[1.0, 0.5, 0.25, 0.125], [0.5, 0.25, 0.125, 0.0625]]

# No grant can outrun the largest transport block the tables allow.
GOODPUT_BOUND_MBPS = tbs(28, 2, 106) / 0.0005 / 1e6


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
        assert run_drops(sc, 1, simulate_drop) == run_drops(sc, 1, simulate_drop)

    def test_drops_differ(self):
        stats = run_drops(_small_rice(), 1, simulate_drop)
        assert len({s.goodput_bps for s in stats}) > 1

    def test_workers_match_sequential(self):
        sc = _small_rice()
        assert run_drops(sc, 2, simulate_drop) == run_drops(sc, 1, simulate_drop)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_drops(_small_rice(), workers, simulate_drop)

    @pytest.mark.parametrize("sweep, noise", [
        (run_sweep_cqi, {"mode": "snr", "snr_db": 8}),
        (run_sweep_snr, {"mode": "snr_sweep", "snr_db_list": [0, 8, 16]}),
    ], ids=["sweep-cqi", "sweep-snr"])
    def test_workers_match_sequential_in_one_pool(self, monkeypatch, sweep, noise):
        started = []

        class CountingPool(sweeps.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sweeps, "ProcessPoolExecutor", CountingPool)
        sc = _small_rice(n_drops=2, n_slots=40, noise=noise)
        assert sweep(sc, workers=2) == sweep(sc, workers=1)
        assert len(started) == 1


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


class TestRunCsiInspect:
    def test_reference_golden(self):
        insp = run_csi_inspect(parse_scenario(scenario_path("csi_fixed_2x4.json")))
        rep = insp.report
        assert (rep.ri, rep.pmi.key(), rep.wideband_sinr_db, rep.cqi) == \
            (1, (0, 0, 0, 0), 12, 10)
        assert insp.gamma_min == pytest.approx(2.6605386228027736, rel=1e-12)
        assert insp.gamma_min == insp.gamma_median == insp.gamma_max
        assert insp.noise_var == 0.1

    def test_orthogonal_rows_channel(self):
        insp = run_csi_inspect(scenario_from_dict({
            "channel": {"type": "fixed",
                        "matrix": [[1, 0, 0, 0], [0, 1, 0, 0]]},
            "noise": {"mode": "variance", "variance": 0.1},
        }))
        rep = insp.report
        assert rep.ri == 2
        assert rep.pmi.key() == (0, 0, 1, 0)
        assert rep.wideband_sinr_db == 4
        assert insp.gamma_max == 2.0

    def test_zero_channel(self):
        insp = run_csi_inspect(scenario_from_dict({
            "channel": {"type": "fixed",
                        "matrix": [[0, 0, 0, 0], [0, 0, 0, 0]]},
            "noise": {"mode": "variance", "variance": 0.1},
        }))
        rep = insp.report
        assert rep.ri == 1
        assert rep.cqi == 4
        assert rep.wideband_sinr_db == -10
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

    @pytest.mark.parametrize("ri", [1, 2])
    @pytest.mark.parametrize("matrix", [H_2X4_REF, H_RANK1], ids=["full_rank", "rank1"])
    def test_sweep_snr(self, matrix, ri):
        sc = self._scenario(matrix, ri, {"mode": "snr_sweep",
                                         "snr_db_list": self.HIGH_SNR_DB})
        chan = drop_channel(sc, derive_seed(sc.seed, 0))
        reports = [[(r.ri, r.pmi.key(), r.cqi) for r in drop_csi(sc.at_snr(p), chan).reports]
                   for p in self.HIGH_SNR_DB]
        assert reports == [reports[0]] * len(self.HIGH_SNR_DB)
        rows = run_sweep_snr(sc)
        assert [r.drops for r in rows] == [rows[0].drops] * len(rows)

    @pytest.mark.parametrize("ri", [1, 2])
    @pytest.mark.parametrize("matrix", [H_2X4_REF, H_RANK1], ids=["full_rank", "rank1"])
    def test_csi(self, matrix, ri):
        def report(variance):
            sc = self._scenario(matrix, ri, {"mode": "variance", "variance": variance})
            return run_csi_inspect(sc).report

        want = report(1e-15)
        assert want.ri == ri
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
        write_gnuplot_xy([(0, 1.25), (2.0, 3.5)], buf)
        assert buf.getvalue() == "# x goodput_mbps\n0 1.250000\n2.000000 3.500000\n"


class TestCli:
    def test_codebook_command(self, tmp_path):
        out = tmp_path / "cb.csv"
        assert cli.main(["codebook", "--ports", "4", "--rank", "2",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 33

    def test_csi_command_stdout(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(["csi", "--config",
                           str(scenario_path("csi_fixed_2x4.json"))])
        assert rc == 0
        assert buf.getvalue().splitlines()[1].startswith("1,0,0,0,0,12,10,")

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

    def test_workers_flag_matches_sequential(self, tmp_path):
        args = ["sweep-snr", "--config",
                str(scenario_path("snr_sweep_rice1_2x4.json")),
                "--drops", "2", "--slots", "40"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

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
