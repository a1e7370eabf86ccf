"""What only a fresh interpreter shows: where scipy is loaded, and that
worker processes write the bytes of an inline sweep. The pytest process
has long loaded scipy and built networks, so each check runs in a child
process started from `src/`."""

import json
import os
import subprocess
import sys

import mmwavesim

SRC = os.path.dirname(os.path.dirname(mmwavesim.__file__))
ENV = {**os.environ, "PYTHONPATH": SRC}

# Every entry point the child reaches before it builds a full run, in order;
# after each, the scipy modules then loaded. Then whether `scipy.special`
# is loaded once a ScenarioRun with agents is built, before its first step.
CHILD = r"""
import contextlib, io, json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

tmp = sys.argv[1]
seen = {}
import mmwavesim, mmwavesim.cli
seen["import"] = scipy_modules()

from mmwavesim.cli import main
from mmwavesim.config import parse_config
from mmwavesim.engine import ScenarioRun, mean_coverage
from mmwavesim.seeding import derive_seed

good, bad = os.path.join(tmp, "good.cfg"), os.path.join(tmp, "bad.cfg")
with open(good, "w") as fh:
    fh.write("tti_count = 12\nn_ues = 6\nscenarios = kmeans_error,ukmeans_error\n")
with open(bad, "w") as fh:
    fh.write("n_ues = 0\n")

spec = parse_config(good)
for cfg in spec.base:
    mean_coverage(cfg)
seen["mean_coverage"] = scipy_modules()

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["validate", "--config", good]) == 0
seen["validate"] = scipy_modules()

argv = ["oracle", "mc-distance", "--center", "0", "0", "--radius", "2", "--point", "3", "4"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(argv + ["--samples", "1000"]) == 0
seen["oracle mc-distance"] = scipy_modules()

with contextlib.redirect_stderr(io.StringIO()):
    assert main(["run", "--config", bad, "--out", os.path.join(tmp, "out")]) == 1
seen["run exiting 1"] = scipy_modules()

cfg = spec.base[0]
ScenarioRun(cfg, derive_seed(cfg.master_seed, 0))
seen["built"] = "scipy.special" in sys.modules
print(json.dumps(seen))
"""


def test_scipy_loads_with_the_first_agent_network_only(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)], env=ENV, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen.pop("built") is True
    assert seen == {
        "import": [],
        "mean_coverage": [],
        "validate": [],
        "oracle mc-distance": [],
        "run exiting 1": [],
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
