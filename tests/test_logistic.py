"""The LSTM gates' numpy logistic against scipy.special.expit, its oracle,
and a diverging run, whose gate exponentials overflow, against stderr."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
from scipy.special import expit
from test_host_independence import VARIANTS

from mmwavesim.agent import _sigmoid

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

LOG_MAX = math.log(np.finfo(float).max)  # 709.78...: exp overflows just above it


def edges():
    near = [LOG_MAX]
    for _ in range(4):  # four floats either side of it
        near = [np.nextafter(near[0], 0.0), *near, np.nextafter(near[-1], math.inf)]
    near = np.array(near)
    return np.concatenate(([0.0, -0.0, 800.0, -800.0, math.inf, -math.inf, math.nan], near, -near))


def test_edges_equal_expit_bit_for_bit_and_warn_only_on_overflow():
    z = edges()
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(z)
    assert got.view(np.uint64).tolist() == expit(z).view(np.uint64).tolist()


def test_random_arguments_differ_from_expit_by_numpy_exp_alone():
    rng = np.random.default_rng(5)
    for scale in (0.1, 1.0, 10.0, 100.0):
        z = rng.normal(0.0, scale, 100_000)
        got = _sigmoid(z)
        e = np.exp(-z)
        # the same formula: only exp can differ, by 1 ulp from libm's (which expit uses) ...
        assert got.tobytes() == (1.0 / (1.0 + e)).tobytes()
        libm = np.array([math.exp(-v) for v in z.tolist()])
        np.testing.assert_array_max_ulp(e, libm, maxulp=1)
        # ... which the rounding of 1 + e (2 ulps at a tie) and of the reciprocal widen to 5
        np.testing.assert_array_max_ulp(got, expit(z), maxulp=5)


CHILD = r"""
import numpy as np
from scipy.special import expit
from mmwavesim.agent import _sigmoid

rng = np.random.default_rng(7)
z = np.concatenate([rng.normal(0.0, s, 100_000) for s in (0.1, 1.0, 10.0, 100.0)])
print(int((_sigmoid(z).view(np.uint64) != expit(z).view(np.uint64)).sum()))
"""


def test_equals_expit_bit_for_bit_on_numpy_baseline_simd():
    env = {**os.environ, "PYTHONPATH": SRC, **VARIANTS["numpy_baseline_simd"]}
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def test_diverging_run_leaves_stderr_empty(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("nn_learning_rate = 1e6\ntti_count = 300\nruns = 1\nscenarios = kmeans_error\n")
    cmd = [sys.executable, "-m", "mmwavesim.cli", "run", "--config", str(config)]
    out = subprocess.run(
        cmd + ["--out", str(tmp_path / "out"), "--jobs", "1"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
