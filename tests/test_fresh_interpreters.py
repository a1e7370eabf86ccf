"""What only a fresh interpreter shows: that no entry point loads scipy, that
one worker loads no process pool and no `traceback`, that `csv` loads only
with a position trace, and that worker processes write the bytes of an inline
sweep. The pytest process has long loaded scipy and these modules, and built
networks, so each check runs in a child process started from `src/`."""

import json
import os
import subprocess
import sys

import pytest

import mmwavesim

SRC = os.path.dirname(os.path.dirname(mmwavesim.__file__))
ENV = {**os.environ, "PYTHONPATH": SRC}

# Every entry point the child reaches, in order, up to a full sweep whose
# cells take a confidence half-width and then one with a position trace;
# after each, the scipy modules then loaded and which of DEFERRED are.
# The child imports none of DEFERRED itself.
CHILD = r"""
import contextlib, io, json, math, os, sys

DEFERRED = ("concurrent.futures.process", "multiprocessing", "traceback", "csv")

def loaded():
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    return {"scipy": scipy, "deferred": [m for m in DEFERRED if m in sys.modules]}

tmp = sys.argv[1]
seen = {}
import mmwavesim, mmwavesim.cli
seen["import"] = loaded()

from mmwavesim.cli import main
from mmwavesim.config import parse_config
from mmwavesim.engine import ScenarioRun, mean_coverage
from mmwavesim.seeding import derive_seed

good, bad = os.path.join(tmp, "good.cfg"), os.path.join(tmp, "bad.cfg")
traced, trace = os.path.join(tmp, "traced.cfg"), os.path.join(tmp, "trace.csv")
with open(good, "w") as fh:
    fh.write("tti_count = 12\nn_ues = 6\nruns = 2\nscenarios = kmeans_error,ukmeans_error\n")
with open(bad, "w") as fh:
    fh.write("n_ues = 0\n")
with open(trace, "w") as fh:
    fh.write("tti,ue_id,x_m,y_m\n0,0,10.0,0.0\n")
with open(traced, "w") as fh:
    fh.write(f"tti_count = 4\nn_ues = 6\nruns = 1\nposition_trace_csv = {trace}\n")

spec = parse_config(good)
for cfg in spec.base:
    mean_coverage(cfg)
seen["mean_coverage"] = loaded()

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["validate", "--config", good]) == 0
seen["validate"] = loaded()

argv = ["oracle", "mc-distance", "--center", "0", "0", "--radius", "2", "--point", "3", "4"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(argv + ["--samples", "1000"]) == 0
seen["oracle mc-distance"] = loaded()

with contextlib.redirect_stderr(io.StringIO()):
    assert main(["run", "--config", bad, "--out", os.path.join(tmp, "bad")]) == 1
seen["run exiting 1"] = loaded()

cfg = spec.base[0]
ScenarioRun(cfg, derive_seed(cfg.master_seed, 0))
seen["built"] = loaded()

out = os.path.join(tmp, "out")
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "--config", good, "--out", out, "--jobs", "1"]) == 0
with open(os.path.join(out, "sweep_summary.csv")) as fh:
    halfwidths = [line.split(",")[5] for line in fh.read().splitlines()[1:]]
assert any(not math.isnan(float(h)) for h in halfwidths)
seen["run --jobs 1 with runs = 2"] = loaded()

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["validate", "--config", traced]) == 0
seen["validate with a trace"] = loaded()
print(json.dumps(seen))
"""

ENTRY_POINTS = (
    "import",
    "mean_coverage",
    "validate",
    "oracle mc-distance",
    "run exiting 1",
    "built",
    "run --jobs 1 with runs = 2",
)


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("child")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp)], env=ENV, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_no_entry_point_loads_scipy(seen):
    assert {step: loaded["scipy"] for step, loaded in seen.items()} == dict.fromkeys(
        (*ENTRY_POINTS, "validate with a trace"), []
    )


def test_one_worker_loads_no_pool_and_csv_waits_for_a_trace(seen):
    assert {step: loaded["deferred"] for step, loaded in seen.items()} == {
        **dict.fromkeys(ENTRY_POINTS, []),
        "validate with a trace": ["csv"],
    }


def test_jobs_2_writes_the_bytes_of_jobs_1(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("tti_count = 100\nruns = 2\n")  # three scenarios, one cell each
    written = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        cmd = [sys.executable, "-m", "mmwavesim.cli", "run", "--config", str(config)]
        proc = subprocess.run(
            cmd + ["--out", str(out), "--jobs", str(jobs)],
            env=ENV,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        written[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(written[1]) == 7  # a report and a summary per cell, and the sweep summary
    assert written[2] == written[1]
