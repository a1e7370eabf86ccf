"""Sweep inputs that must be rejected or bounded before any cell runs."""

import concurrent.futures
import math
import os
from concurrent.futures import Future

import pytest

from mmwavesim.cli import main, run_sweep
from mmwavesim.config import parse_config_text
from mmwavesim.engine import load_position_trace
from mmwavesim.errors import ConfigError

TINY = (
    "tti_count = 6\nruns = 1\nn_ues = 2\nn_clusters = 1\nn_beams = 1\n"
    "rbg_count = 2\nhidden_units = 4\nminibatch = 4\nreplay_capacity = 8\n"
)


class InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - delivered through the future
            fut.set_exception(exc)
        return fut


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(InlinePool, "created", [])
    # run_sweep imports the pool class when it needs one, so patch its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return InlinePool.created


class TestJobs:
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_below_one_rejected(self, tmp_path, jobs, inline_pool):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)]) == 1
        assert not out.exists()
        with pytest.raises(ConfigError):
            run_sweep(parse_config_text(TINY), str(out), jobs=jobs)
        assert inline_pool == []

    @pytest.mark.parametrize(
        "jobs, cpus, expected",
        [
            (10**6, 64, 3),  # clamped to the cell count
            (10**6, 2, 2),  # clamped to the CPU count
            (2, 64, 2),
            (10**6, None, None),  # unknown CPU count: one worker, no pool
            (1, 64, None),
        ],
    )
    def test_worker_count_clamped(self, tmp_path, monkeypatch, inline_pool, jobs, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = parse_config_text(TINY)  # three scenarios, one sweep value
        assert run_sweep(spec, str(tmp_path / "pooled"), jobs=jobs) == 0
        assert inline_pool == ([] if expected is None else [expected])
        assert run_sweep(spec, str(tmp_path / "serial"), jobs=1) == 0
        names = sorted(os.listdir(tmp_path / "serial"))
        assert len(names) == 7
        for name in names:
            assert (tmp_path / "pooled" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()


def _trace(tmp_path, rows):
    path = tmp_path / "trace.csv"
    path.write_text("tti,ue_id,x_m,y_m\n" + "".join(r + "\n" for r in rows))
    return path


class TestTraceRows:
    def test_row_at_gnb_rejected_with_line(self, tmp_path):
        path = _trace(tmp_path, ["0,0,10.0,5.0", "0,1,0.0,-0.0"])
        with pytest.raises(ConfigError, match="line 3"):
            load_position_trace(path)

    @pytest.mark.parametrize("x, y", [("nan", "1"), ("1", "inf"), ("-inf", "2"), ("1e400", "3")])
    def test_non_finite_rejected_with_line(self, tmp_path, x, y):
        path = _trace(tmp_path, [f"0,0,{x},{y}"])
        with pytest.raises(ConfigError, match="line 2"):
            load_position_trace(path)

    def test_negative_tti_rejected_with_line(self, tmp_path, capsys):
        trace = _trace(tmp_path, ["-3,0,50.0,10.0", "0,1,10,10"])
        with pytest.raises(ConfigError, match="line 2: tti must be >= 0"):
            load_position_trace(trace)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"position_trace_csv = {trace}\n")
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("line 2: tti must be >= 0") == 2
        assert not out.exists()

    # a fifth field, and decimal commas (x = 10,5 and y = 5,0 read as six fields)
    @pytest.mark.parametrize("row", ["0,0,10.0,5.0,junk", "0,0,10,5,5,0"])
    def test_row_without_four_fields_exits_1_with_line(self, tmp_path, capsys, row):
        trace = _trace(tmp_path, [row, "0,1,10,10"])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"position_trace_csv = {trace}\n")
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("line 2: malformed row") == 2
        assert not out.exists()

    @pytest.mark.parametrize("far", ["1e6,0", "-8e5,6e5", "0,-1000000.0"])
    def test_row_at_the_far_bound_runs(self, tmp_path, far):
        trace = _trace(tmp_path, ["0,0,10,10", f"0,1,{far}"])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"position_trace_csv = {trace}\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("far", [f"{math.nextafter(1e6, math.inf)!r},0", "8e5,6.000001e5", "1e160,0"])
    def test_row_past_the_far_bound_exits_1_with_line(self, tmp_path, capsys, far):
        trace = _trace(tmp_path, ["0,0,10,10", f"0,1,{far}"])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"position_trace_csv = {trace}\n")
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("line 3: position is farther than 1e+06 m") == 2
        assert not out.exists()

    def test_near_origin_accepted(self, tmp_path):
        path = _trace(tmp_path, ["0,0,0.0,0.5"])
        assert 0 in load_position_trace(path)

    def test_bad_trace_fails_run_before_any_cell(self, tmp_path, capsys):
        trace = _trace(tmp_path, ["0,0,0,0", "0,1,10,10"])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"position_trace_csv = {trace}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_good_trace_runs(self, tmp_path):
        trace = _trace(tmp_path, ["0,0,30,10", "0,1,-20,40", "3,0,25,-15"])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + f"position_trace_csv = {trace}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "sweep_summary.csv").exists()
