import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import t

import mmwavesim
from mmwavesim.stats import confidence_interval


def test_five_point_fixture():
    # independent derivation: s = 1.5811388, t(0.975, 4) = 2.7764451,
    # half-width = 2.7764451 * 1.5811388 / sqrt(5) = 1.9632432
    mean, hw = confidence_interval([1, 2, 3, 4, 5])
    assert mean == 3.0
    assert hw == pytest.approx(1.9632432, abs=1e-6)


def test_two_point_fixture():
    # s = 7.0710678, t(0.975, 1) = 12.7062047, hw = 12.7062047 * 5.0
    mean, hw = confidence_interval([0, 10])
    assert mean == 5.0
    assert hw == pytest.approx(63.5310237, abs=1e-4)


def test_equal_samples_zero_halfwidth():
    mean, hw = confidence_interval([2.0, 2.0, 2.0])
    assert mean == 2.0
    assert hw == 0.0


def test_single_sample_not_applicable():
    mean, hw = confidence_interval([4.2])
    assert mean == 4.2
    assert math.isnan(hw)


def test_halfwidth_is_the_student_t_quantile_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in range(2, 61):
        xs = rng.normal(10.0, 3.0, n)
        s = float(np.std(xs, ddof=1))
        _, hw = confidence_interval(xs)
        assert hw == float(t.ppf(0.975, n - 1)) * s / math.sqrt(n)


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(mmwavesim.__file__))
    code = "import sys, mmwavesim, mmwavesim.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
