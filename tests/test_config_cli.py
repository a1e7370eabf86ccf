import os

import pytest

from mmwavesim import cli
from mmwavesim.cli import MAX_MC_SAMPLES, main, run_sweep
from mmwavesim.config import SWEEPABLE, emit_config, parse_config, parse_config_text
from mmwavesim.engine import Scenario
from mmwavesim.errors import ConfigError


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        spec = parse_config(path)
        cfg = spec.base[0]
        assert cfg.n_clusters == 3
        assert cfg.antenna.n_elements == 1024
        assert cfg.epsilon == 0.1
        assert cfg.gamma == 0.9
        assert cfg.tti_count == 1400
        assert cfg.runs == 5
        assert cfg.beam_width_deg == 20.0
        assert cfg.cell_radius_m == 160.0
        assert cfg.error_rmse_m == 8.0
        assert cfg.hidden_units == 20
        assert cfg.minibatch == 20
        assert cfg.replay_capacity == 60
        assert cfg.train_interval_ttis == 60
        assert cfg.target_copy_interval_ttis == 120
        assert cfg.qos_latency_ttis == 8  # 1 ms at the default TTI duration
        assert [c.scenario for c in spec.base] == [
            Scenario.KMEANS_ERROR,
            Scenario.UKMEANS_ERROR,
            Scenario.KMEANS_EXACT,
        ]
        assert spec.variable == "n_beams"
        assert spec.values == (3,)

    def test_comments_and_blank_lines(self):
        spec = parse_config_text("# a comment\n\nn_beams = 5  # trailing\n")
        assert spec.base[0].n_beams == 5

    def test_out_of_range_names_key_and_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("runs = 3\nepsilon = 1.5\n")
        msg = str(exc.value)
        assert "epsilon" in msg
        assert "line 2" in msg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("bogus_knob = 1\n")
        assert "bogus_knob" in str(exc.value)

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("n_beams 4\n")
        assert "line 1" in str(exc.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("runs = 2\nruns = 3\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"n_ues = \xff\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(path)

    def test_round_trip(self):
        text = (
            "scenarios = kmeans_error,kmeans_exact\n"
            "sweep_variable = beam_width_deg\n"
            "sweep_values = 10,20,30\n"
            "n_beams = 4\n"
            "tti_count = 50\n"
            "runs = 2\n"
            "load_bps = 3500000\n"
            "informative_pdf = true\n"
        )
        spec = parse_config_text(text)
        assert parse_config_text(emit_config(spec)) == spec

    def test_round_trip_defaults(self):
        spec = parse_config_text("")
        assert parse_config_text(emit_config(spec)) == spec

    def test_sweep_variable_validation(self):
        with pytest.raises(ConfigError):
            parse_config_text("sweep_variable = cell_radius_m\n")
        with pytest.raises(ConfigError):
            parse_config_text("sweep_variable = n_beams\nsweep_values = 1.5,2\n")
        assert set(SWEEPABLE) == {"n_beams", "beam_width_deg", "load_bps"}

    def test_scenario_list_validation(self):
        with pytest.raises(ConfigError):
            parse_config_text("scenarios = kmeans_error,martian\n")
        with pytest.raises(ConfigError):
            parse_config_text("scenarios = kmeans_error,kmeans_error\n")

    def test_cells_enumeration(self):
        spec = parse_config_text("sweep_values = 4,5\nscenarios = kmeans_error,kmeans_exact\n")
        cells = spec.cells()
        assert len(cells) == 4
        assert [(c.scenario.value, v) for c, v in cells] == [
            ("kmeans_error", 4),
            ("kmeans_exact", 4),
            ("kmeans_error", 5),
            ("kmeans_exact", 5),
        ]


SMALL_CFG = (
    "tti_count = 30\n"
    "runs = 2\n"
    "n_ues = 4\n"
    "n_clusters = 2\n"
    "n_beams = 2\n"
    "rbg_count = 4\n"
    "hidden_units = 6\n"
    "minibatch = 8\n"
    "replay_capacity = 24\n"
    "train_interval_ttis = 10\n"
    "target_copy_interval_ttis = 20\n"
    "sweep_values = 2,3\n"
)


class TestRunSweep:
    def test_outputs_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_CFG)
        spec = parse_config(cfg_path)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert run_sweep(spec, str(out1)) == 0
        assert run_sweep(spec, str(out2), jobs=2) == 0

        summary = (out1 / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "sweep_variable,value,scenario,metric,mean,ci95_halfwidth"
        # 2 sweep values x 3 scenarios x 3 metrics
        assert len(summary) == 1 + 2 * 3 * 3

        for value_index in (0, 1):
            for scen in ("kmeans_error", "ukmeans_error", "kmeans_exact"):
                assert (out1 / f"report_{scen}_n_beams_{value_index}.csv").exists()
                assert (out1 / f"summary_{scen}_n_beams_{value_index}.csv").exists()

        # byte-identical across reruns and across --jobs settings
        for name in sorted(os.listdir(out1)):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_metric_ranges(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_CFG)
        out = tmp_path / "out"
        assert run_sweep(parse_config(cfg_path), str(out)) == 0
        for line in (out / "sweep_summary.csv").read_text().splitlines()[1:]:
            _, _, _, metric, mean, _ = line.split(",")
            if metric == "coverage_rate":
                assert 0.0 <= float(mean) <= 1.0
            elif metric == "sum_rate_bps":
                assert float(mean) >= 0.0

    def test_summary_rederivable_from_per_tti_rows(self, tmp_path):
        # the aggregate rows must follow from the raw per-TTI records
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_CFG)
        out = tmp_path / "out"
        run_sweep(parse_config(cfg_path), str(out))
        report = (out / "report_kmeans_error_n_beams_0.csv").read_text().splitlines()[1:]
        per_run = {}
        for line in report:
            run, tti, cov, bits, _ = line.split(",")
            per_run.setdefault(int(run), []).append(float(cov))
        from mmwavesim.stats import confidence_interval

        means = [sum(v) / len(v) for _, v in sorted(per_run.items())]
        expected_mean, expected_hw = confidence_interval(means)
        summary = (out / "summary_kmeans_error_n_beams_0.csv").read_text().splitlines()
        cov_row = [l for l in summary if ",coverage_rate," in l][0]
        assert float(cov_row.split(",")[2]) == pytest.approx(expected_mean, rel=1e-12)
        assert float(cov_row.split(",")[3]) == pytest.approx(expected_hw, rel=1e-12)


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("runs = 2\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "runs = 2" in out
        assert "n_antennas = 1024" in out

    def test_validate_bad_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epsilon = 7\n")
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "epsilon" in capsys.readouterr().err

    def test_run_missing_config_exit_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1

    def test_run_small_sweep(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "tti_count = 10\nruns = 1\nn_ues = 2\nn_clusters = 1\nn_beams = 1\n"
            "rbg_count = 2\nhidden_units = 4\nminibatch = 4\nreplay_capacity = 8\n"
            "scenarios = kmeans_error\n"
        )
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "sweep_summary.csv").exists()

    def test_run_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "tti_count = 10\nruns = 1\nn_ues = 2\nn_clusters = 1\nn_beams = 1\n"
            "rbg_count = 2\nhidden_units = 4\nminibatch = 4\nreplay_capacity = 8\n"
            "scenarios = kmeans_error\n"
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "2"]) == 0
        assert (out_a / "report_kmeans_error_n_beams_0.csv").read_bytes() != (
            out_b / "report_kmeans_error_n_beams_0.csv"
        ).read_bytes()

    def test_oracle_mc_distance(self, capsys):
        rc = main(
            [
                "oracle",
                "mc-distance",
                "--center", "0", "0",
                "--radius", "2",
                "--point", "3", "4",
                "--samples", "200000",
                "--seed", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "closed_form = 27.0" in out
        assert "monte_carlo" in out


class TestOracleRejectsBadInput:
    ARGS = {"--center": ["0", "0"], "--radius": ["2"], "--point": ["3", "4"], "--samples": ["1000"]}

    @pytest.mark.parametrize(
        "flag, values",
        [
            ("--samples", ["0"]),
            ("--samples", ["-5"]),
            ("--samples", [str(MAX_MC_SAMPLES + 1)]),
            ("--radius", ["-1"]),
            ("--radius", ["inf"]),
            ("--radius", ["nan"]),
            ("--center", ["nan", "0"]),
            ("--center", ["0", "inf"]),
            ("--point", ["0", "nan"]),
            ("--seed", ["-1"]),
        ],
    )
    def test_exit_1_before_any_draw(self, monkeypatch, capsys, flag, values):
        drawn = []
        monkeypatch.setattr(cli, "make_rng", lambda seed: drawn.append(seed))
        args = dict(self.ARGS, **{flag: values})
        argv = ["oracle", "mc-distance"] + [v for k, vs in args.items() for v in (k, *vs)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and flag in err
        assert drawn == []

    def test_largest_sample_count_is_accepted(self, monkeypatch, capsys):
        drawn = []
        monkeypatch.setattr(
            cli, "mc_expected_sq_distance", lambda p, c, n, rng: drawn.append(n) or 27.0
        )
        argv = ["oracle", "mc-distance", "--center", "0", "0", "--radius", "2", "--point", "3", "4"]
        assert main(argv + ["--samples", str(MAX_MC_SAMPLES)]) == 0
        assert drawn == [MAX_MC_SAMPLES]
