"""Every function the benchmark traces or times still exists where the
benchmark looks it up, and the hooks that derive per-layer ratios read
what those functions return, so a refactor cannot turn a per-layer row
"absent" or "broken" without a failing test."""

import inspect
import os
import sys

import numpy as np
import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from worker import SPANS, Counters, _lookup  # noqa: E402

from mmwavesim import engine  # noqa: E402
from mmwavesim.clustering import ClusteringConfig, run_clustering  # noqa: E402


@pytest.mark.parametrize("name, module_name, attr", SPANS, ids=[span[0] for span in SPANS])
def test_every_span_resolves(name, module_name, attr):
    assert _lookup(module_name, attr) is not None


def test_step_is_a_method_of_scenario_run():
    # the untraced run mode times `ScenarioRun.step` on the class
    assert inspect.isfunction(engine.ScenarioRun.__dict__.get("step"))


def test_clustering_hook_reads_a_real_result():
    # the hook behind `iterations_mean` and `converged_ratio`
    counters = Counters()
    hook = counters.hooks()["clustering.run_clustering"]
    points = np.array([(0.0, 0.0), (0.0, 1.0), (10.0, 0.0), (10.0, 1.0)])
    settled = ClusteringConfig(k=2, seed=1)
    cut = ClusteringConfig(k=2, seed=1, max_iterations=1, convergence_epsilon=0.0)
    results = [run_clustering(points, cfg) for cfg in (settled, cut)]
    for cfg, result in zip((settled, cut), results):
        hook((points, cfg), result)
    assert [r.converged for r in results] == [True, False]
    assert counters.iterations == results[0].iterations + 1
    assert counters.converged == 1
    assert not counters.broken
