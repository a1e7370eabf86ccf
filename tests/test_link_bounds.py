"""Inputs that would make a link's SINR or a dB conversion non-finite are
rejected with their line before any cell starts."""

import math

import pytest

from mmwavesim.beams import DB_LIMIT, AntennaConfig, Beam, compute_sinr
from mmwavesim.cli import main
from mmwavesim.engine import (
    MAX_ARRIVALS_PER_TTI,
    MIN_GNB_DISTANCE_M,
    ScenarioConfig,
    load_position_trace,
)
from mmwavesim.errors import ConfigError

TINY = (
    "tti_count = 6\nruns = 1\nn_ues = 2\nn_clusters = 1\nn_beams = 1\n"
    "rbg_count = 2\nhidden_units = 4\nminibatch = 4\nreplay_capacity = 8\n"
)


def _trace(tmp_path, rows):
    path = tmp_path / "trace.csv"
    path.write_text("tti,ue_id,x_m,y_m\n" + "".join(r + "\n" for r in rows))
    return path


class TestTraceDistance:
    @pytest.mark.parametrize("x, y", [("0", "1e-200"), ("1e-200", "0"), ("-5e-4", "5e-4")])
    def test_row_within_1mm_of_gnb_rejected_with_line(self, tmp_path, x, y):
        path = _trace(tmp_path, ["0,0,10.0,5.0", f"0,1,{x},{y}"])
        with pytest.raises(ConfigError, match="line 3: position is within"):
            load_position_trace(path)

    def test_sinr_is_finite_at_the_minimum_distance(self):
        beam = Beam(boresight=0.0, width=0.3, members=(0,))
        other = Beam(boresight=0.1, width=0.3, members=(1,))
        assert math.isnan(compute_sinr(0.0, 1e-200, beam, [other], AntennaConfig()))
        assert math.isfinite(compute_sinr(0.0, MIN_GNB_DISTANCE_M, beam, [other], AntennaConfig()))

    def test_close_trace_row_fails_run_before_any_cell(self, tmp_path, capsys):
        trace = _trace(tmp_path, ["0,0,0,1e-200", "0,1,10,10"])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"position_trace_csv = {trace}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()


class TestDbKeys:
    @pytest.mark.parametrize("key", ["qos_sinr_db", "tx_power_dbm", "noise_power_dbm"])
    @pytest.mark.parametrize("value", ["1e308", "-1e308", "300.5"])
    def test_huge_db_value_exits_1_before_any_cell(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"{key} = {value}\n")
        out = tmp_path / "out"
        line = TINY.count("\n") + 1
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count(f"line {line}: {key} must be in [-300, 300]") == 2

    @pytest.mark.parametrize("key", ["qos_sinr_db", "tx_power_dbm", "noise_power_dbm"])
    def test_bounds_run(self, tmp_path, key):
        for value in (-DB_LIMIT, DB_LIMIT):
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(TINY + f"{key} = {value}\n")
            out = tmp_path / f"out{value}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0


class TestCarrierFrequency:
    @pytest.mark.parametrize("value", ["1e-300", "999999.0", "1.000001e12", "1e308"])
    def test_out_of_range_exits_1_before_any_cell(self, tmp_path, capsys, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"carrier_frequency_hz = {value}\n")
        out = tmp_path / "out"
        line = TINY.count("\n") + 1
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count(f"line {line}: carrier_frequency_hz") == 2

    @pytest.mark.parametrize("hz", [1e6, 1e12])
    @pytest.mark.parametrize("distance", [MIN_GNB_DISTANCE_M, 1e6])
    def test_sinr_is_finite_at_the_range_ends(self, hz, distance):
        beam = Beam(boresight=0.0, width=0.3, members=(0,))
        other = Beam(boresight=0.1, width=0.3, members=(1,))
        antenna = AntennaConfig(carrier_frequency_hz=hz)
        for interferers in ([], [other]):
            assert math.isfinite(compute_sinr(0.0, distance, beam, interferers, antenna))


class TestCellRadius:
    """Keys bounded to 1e6 m, so that the cell and the injected error stay
    inside the span where every link is finite."""

    KEY = "cell_radius_m"

    @pytest.mark.parametrize("value", ["1e200", "1.000001e6"])
    def test_out_of_range_exits_1_before_any_cell(self, tmp_path, capsys, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"{self.KEY} = {value}\n")
        out = tmp_path / "out"
        line = TINY.count("\n") + 1
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count(f"line {line}: {self.KEY}") == 2

    def test_upper_end_runs(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"{self.KEY} = 1e6\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


class TestErrorRmse(TestCellRadius):
    KEY = "error_rmse_m"


class TestCellRadiusLowerEnd:
    """Below 1 m a synthetic UE may land within 1 mm of the gNB, where no
    link is defined; from 1 m on it lands at least 1e-8 m away."""

    @pytest.mark.parametrize("value", ["1e-300", "0.5"])
    def test_below_one_metre_exits_1_before_any_cell(self, tmp_path, capsys, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"cell_radius_m = {value}\n")
        out = tmp_path / "out"
        line = TINY.count("\n") + 1
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count(f"line {line}: cell_radius_m") == 2

    def test_one_metre_runs(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + "cell_radius_m = 1.0\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


class TestArrivalsPerTti:
    """The mean packets per UE and TTI are bounded, so the Poisson draw of
    every accepted config is defined."""

    @pytest.mark.parametrize("key", ["load_bps", "tti_duration_s"])
    def test_huge_mean_exits_1_before_any_cell(self, tmp_path, capsys, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"{key} = 1e300\n")
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count("mean arrivals per UE and TTI") == 2

    def test_the_bound_itself_runs(self, tmp_path):
        # 2.048e10 b/s / 256 b * 125 us = 10000.0 packets per TTI
        assert ScenarioConfig(load_bps=2.048e10).arrivals_per_tti == MAX_ARRIVALS_PER_TTI
        path = tmp_path / "exp.cfg"
        path.write_text(TINY + "load_bps = 2.048e10\n")
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
