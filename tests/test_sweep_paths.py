"""The path from a config file to the sweep CSVs: traces checked, by `run`
and `validate` alike, before any output exists, no partial file after a
failed write, the run builder's trace branch, the cross-field rules' order
and beam grouping."""

import math
import os

import numpy as np
import pytest

from mmwavesim import cli
from mmwavesim.beams import form_beams
from mmwavesim.cli import main, run_sweep
from mmwavesim.config import parse_config_text
from mmwavesim.engine import (
    Scenario,
    ScenarioConfig,
    ScenarioRun,
    load_position_trace,
    mean_coverage,
    run_scenario,
)
from mmwavesim.errors import ConfigError
from mmwavesim.geometry import Point2D
from mmwavesim.seeding import derive_seed
from reference import xy

TINY = (
    "tti_count = 6\nruns = 1\nn_ues = 3\nn_clusters = 1\nn_beams = 1\n"
    "rbg_count = 2\nhidden_units = 4\nminibatch = 4\nreplay_capacity = 8\n"
)


def _trace(tmp_path, rows):
    path = tmp_path / "trace.csv"
    path.write_text("tti,ue_id,x_m,y_m\n" + "".join(r + "\n" for r in rows))
    return path


def _config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


class TestTraceUeIds:
    @pytest.mark.parametrize("ue_id", [3, 7, -1])
    def test_out_of_range_id_exits_1_before_any_output(self, tmp_path, capsys, ue_id):
        trace = _trace(tmp_path, ["0,0,30,10", "0,1,-20,40", f"2,{ue_id},30,40"])
        cfg = _config(tmp_path, TINY + f"position_trace_csv = {trace}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(trace) in err and f"ue_id {ue_id}" in err and "n_ues = 3" in err
        assert not out.exists()

    def test_run_sweep_raises_before_creating_the_directory(self, tmp_path):
        trace = _trace(tmp_path, ["0,0,30,10", "0,3,-20,40"])
        spec = parse_config_text(TINY + f"position_trace_csv = {trace}\n")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"ue_id 3 is outside \[0, n_ues\), n_ues = 3"):
            run_sweep(spec, str(out))
        assert not out.exists()

    def test_largest_id_n_ues_minus_1_runs(self, tmp_path):
        trace = _trace(tmp_path, ["0,0,30,10", "0,2,-20,40", "3,1,25,-15"])
        cfg = _config(tmp_path, TINY + f"position_trace_csv = {trace}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(os.listdir(out)) == 7

    @pytest.mark.parametrize("ue_id", [-1, 3])
    def test_raises_before_the_first_step(self, monkeypatch, ue_id):
        steps = []
        monkeypatch.setattr(ScenarioRun, "step", lambda run, t: steps.append(t))
        cfg = ScenarioConfig(n_ues=3, n_clusters=1, n_beams=1, tti_count=40, runs=1)
        trace = {0: [(0, Point2D(30.0, 10.0))], 30: [(ue_id, Point2D(-20.0, 40.0))]}
        message = rf"ue_id {ue_id} is outside \[0, n_ues\), n_ues = 3"
        with pytest.raises(ConfigError, match=message):
            run_scenario(cfg, trace=trace)
        with pytest.raises(ConfigError, match=message):
            ScenarioRun(cfg, derive_seed(cfg.master_seed, 0), trace=trace)
        assert steps == []

    def test_each_trace_file_is_loaded_once(self, tmp_path, monkeypatch):
        trace = _trace(tmp_path, ["0,0,30,10", "0,2,-20,40"])
        spec = parse_config_text(TINY + f"position_trace_csv = {trace}\n")  # three scenarios
        loaded = []
        monkeypatch.setattr(cli, "load_position_trace", lambda p: loaded.append(p) or {})
        assert run_sweep(spec, str(tmp_path / "out")) == 0
        assert loaded == [str(trace)]


class TestValidateReadsTraces:
    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read trace"),
            (b"tti,ue_id,x_m,y_m\n0,0,\xff,1\n", "cannot read trace"),
            (b"0,0,30,10\n", "expected header tti,ue_id,x_m,y_m"),
            (b"tti,ue_id,x_m,y_m\n0,0,30,10\n0,3,-20,40\n", "ue_id 3 is outside [0, n_ues)"),
        ],
        ids=["missing_file", "not_utf8", "bad_header", "ue_id_at_n_ues"],
    )
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, content, message):
        trace = tmp_path / "trace.csv"
        if content is not None:
            trace.write_bytes(content)
        cfg = _config(tmp_path, TINY + f"position_trace_csv = {trace}\n")
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg)]) == 1
        validated = capsys.readouterr()
        assert validated.out == ""
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        ran = capsys.readouterr()
        assert not out.exists()
        assert validated.err == ran.err
        assert ran.err.startswith("config error: ") and message in ran.err
        assert ran.err.count("\n") == 1


class TestFailedWrite:
    @pytest.mark.parametrize("writer", ["write_per_tti_csv", "write_summary_csv"])
    def test_no_partial_file_and_other_cells_intact(self, tmp_path, monkeypatch, capsys, writer):
        spec = parse_config_text(TINY)
        clean = tmp_path / "clean"
        assert run_sweep(spec, str(clean)) == 0

        real = getattr(cli, writer)

        def fails_for_exact(report, path):
            if report.config.scenario is Scenario.KMEANS_EXACT:
                with open(path, "w") as fh:
                    fh.write("half a fi")
                raise OSError("disk full")
            real(report, path)

        monkeypatch.setattr(cli, writer, fails_for_exact)
        out = tmp_path / "out"
        assert run_sweep(spec, str(out)) == 2
        assert "cell failed: scenario=kmeans_exact n_beams=1: disk full" in capsys.readouterr().err

        names = sorted(os.listdir(out))
        assert not [n for n in names if n.endswith((".part", ".tmp"))]
        failed = {"report_kmeans_exact_n_beams_0.csv", "summary_kmeans_exact_n_beams_0.csv"}
        if writer == "write_summary_csv":  # the report was complete before the summary failed
            failed.remove("report_kmeans_exact_n_beams_0.csv")
        assert set(os.listdir(clean)) - set(names) == failed
        for name in names:
            if name != "sweep_summary.csv":
                assert (out / name).read_bytes() == (clean / name).read_bytes()
        clean_rows = (clean / "sweep_summary.csv").read_text().splitlines()
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        assert rows == [r for r in clean_rows if ",kmeans_exact," not in r]


def _fail_in_named_helper(cfg):
    raise RuntimeError(f"no result for {cfg.scenario.value}")


class TestFailedCell:
    def test_prints_the_traceback_under_its_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_scenario", lambda cfg, trace=None: _fail_in_named_helper(cfg))
        assert run_sweep(parse_config_text(TINY), str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        line = "cell failed: scenario=kmeans_exact n_beams=1: no result for kmeans_exact\n"
        assert line + "Traceback (most recent call last):\n" in err
        assert ", in _fail_in_named_helper\n" in err
        assert err.count("Traceback") == 3  # one per failed cell

    def test_a_pool_worker_traceback_reaches_stderr(self, tmp_path, capsys):
        out = tmp_path / "out"
        blocker = out / "report_kmeans_exact_n_beams_0.csv"  # a directory: the rename fails
        blocker.mkdir(parents=True)
        (blocker / "keep").write_text("")
        assert run_sweep(parse_config_text(TINY), str(out), jobs=2) == 2
        err = capsys.readouterr().err
        assert err.startswith("cell failed: scenario=kmeans_exact n_beams=1: ")
        # raised in the worker: only the traceback it sent back names these frames
        assert ", in _run_cell\n" in err
        assert ", in _atomic_write\n" in err


def test_mean_coverage_plays_the_configured_trace(tmp_path):
    trace = _trace(tmp_path, ["0,0,30,10", "0,1,-20,40", "0,2,5,-60", "4,1,90,90", "9,0,-100,5"])
    cfg = ScenarioConfig(n_ues=3, n_clusters=2, n_beams=2, tti_count=12, trace_csv=str(trace))
    run = ScenarioRun(
        cfg, derive_seed(cfg.master_seed, 0), trace=load_position_trace(trace), coverage_only=True
    )
    expected = float(np.mean([run.step(t)[0] for t in range(cfg.tti_count)]))
    assert mean_coverage(cfg) == expected


class TestCrossFieldRules:
    def test_replay_rule_message(self):
        with pytest.raises(ConfigError, match="^minibatch cannot exceed replay_capacity$"):
            ScenarioConfig(minibatch=61)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(n_ues=2, n_clusters=3), "n_clusters cannot exceed n_ues"),
            (dict(load_bps=1e300), "the mean arrivals per UE and TTI"),
            (dict(gamma=2.0), "gamma must be"),
            (dict(hidden_units=0), "hidden_units must be"),
        ],
    )
    def test_reported_before_the_replay_rule(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(minibatch=61, **fields)


def test_form_beams_skips_a_center_without_members():
    pts = [Point2D(100, 0), Point2D(100, 10), Point2D(0, 100), Point2D(10, 100)]
    centers = [Point2D(100, 5), Point2D(-50, -50), Point2D(5, 100)]
    beams = form_beams(centers, math.radians(20), 2, points=xy(pts), labels=[0, 0, 2, 2])
    assert [b.members for b in beams] == [(0, 1), (2, 3)]
    assert [b.boresight for b in beams] == [math.atan2(5, 100), math.atan2(100, 5)]
