"""Smoke test of the benchmark harness at the tiny size of every workload.

    python3 -m pytest bench/test_smoke.py

Checks that one command reports every end-to-end and per-layer metric
with its unit, that every repetition's output matches its reference
digest (failed_ratio 0), and that BENCHMARK.json declares the metrics the
harness reports. It has no wall-clock gate.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import END_TO_END, layer_metric_names  # noqa: E402
from worker import WORKLOADS  # noqa: E402


def test_tiny_run_reports_every_metric_and_matches_references():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3 * 3  # per workload: one untraced, one paired, one traced
    metrics = result["metrics"]
    for workload in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, layer_metric_names())):
            for name, unit, _ in table:
                metric = metrics[f"{workload}.trace{trace}.{name}"]
                assert metric["unit"] == unit
                assert isinstance(metric["value"], (int, float))
    # the coverage sweep never reaches the scheduler
    assert metrics["coverage_sweep.trace1.agent.act.calls"]["value"] == 0
    assert metrics["default_sweep.trace1.agent.act.calls"]["value"] > 0


def test_benchmark_json_declares_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]
    assert names == [w for w in WORKLOADS if w in names] and len(names) >= 2
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(
        layer_metric_names()
    )
