"""Every function the benchmark traces or times still exists where the
benchmark looks it up, so a refactor cannot turn a per-layer row
"absent" without a failing test."""

import inspect
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from worker import SPANS, _lookup  # noqa: E402

from mmwavesim import engine  # noqa: E402


@pytest.mark.parametrize("name, module_name, attr", SPANS, ids=[span[0] for span in SPANS])
def test_every_span_resolves(name, module_name, attr):
    assert _lookup(module_name, attr) is not None


def test_step_is_a_method_of_scenario_run():
    # the untraced run mode times `ScenarioRun.step` on the class
    assert inspect.isfunction(engine.ScenarioRun.__dict__.get("step"))
