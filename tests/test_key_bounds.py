"""Every numeric config key has a finite upper bound or is named open here,
with what keeps it harmless; the keys bounded for a crash past their bound
run at it and exit 1 beyond it, before any cell starts."""

import math
import warnings
from enum import Enum

import pytest

from mmwavesim.cli import main
from mmwavesim.config import KEYS

TINY = (
    "tti_count = 6\nruns = 1\nn_ues = 2\nn_clusters = 1\nn_beams = 1\n"
    "rbg_count = 2\nhidden_units = 4\nminibatch = 4\nreplay_capacity = 8\n"
)

# the numeric keys without a finite `hi`, each with what keeps it in check
OPEN_KEYS = {
    "n_clusters": "at most n_ues (1000), by the n_clusters <= n_ues rule",
    "master_seed": "derive_seed reduces any int to 64 bits",
    "move_interval_ttis": "read by modulo; past tti_count no UE moves",
    "train_interval_ttis": "read by modulo; past tti_count no agent trains",
    "target_copy_interval_ttis": "read by modulo; past tti_count no target network syncs",
    "load_bps": "the arrivals rule bounds its mean packets per UE and TTI",
    "tti_duration_s": "the arrivals rule bounds it while load_bps > 0",
    "nn_learning_rate": "training may diverge to inf or nan Q-values, which greedy's "
    "all -inf fallback takes",
    "cluster_convergence_epsilon": "a stop threshold: a large one ends clustering after a round",
    "subcarrier_spacing_hz": "the RBG bandwidth rule keeps 12 * spacing * rbs_per_rbg finite, "
    "so a budget is finite or inf, never nan, and an inf budget serves every queued packet",
}


def _numeric(key) -> bool:
    return isinstance(key.default, (int, float)) and not isinstance(key.default, (bool, Enum))


def test_every_numeric_key_is_bounded_or_named_open():
    unbounded = {key.name for key in KEYS if _numeric(key) and not key.range.hi < math.inf}
    assert unbounded == set(OPEN_KEYS)


def _validate_and_run(tmp_path, text):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY + text)
    out = tmp_path / "out"
    validated = main(["validate", "--config", str(cfg)])
    ran = main(["run", "--config", str(cfg), "--out", str(out)])
    return (validated, ran), out.exists()


@pytest.mark.parametrize(
    "text",
    [
        "qos_latency_ttis = 100000\n",
        "qos_latency_ttis = 0\ntti_duration_s = 1e-8\n",  # derives 1 ms / 10 ns = 100000
        "qos_latency_ttis = 8\ntti_duration_s = 1e-9\n",
        # the range is open at 1e6
        f"element_spacing_over_wavelength = {math.nextafter(1e6, 0)!r}\n",
    ],
)
def test_the_bound_runs(tmp_path, text):
    assert _validate_and_run(tmp_path, text) == ((0, 0), True)


@pytest.mark.parametrize(
    "key, text",
    [
        ("qos_latency_ttis", "qos_latency_ttis = 100001\n"),
        ("qos_latency_ttis", f"qos_latency_ttis = {10**400}\n"),
        ("tti_duration_s", f"qos_latency_ttis = 0\ntti_duration_s = {math.nextafter(1e-8, 0)!r}\n"),
        ("tti_duration_s", f"qos_latency_ttis = 8\ntti_duration_s = {math.nextafter(1e-9, 0)!r}\n"),
        # once ran to a sum_rate_bps of inf
        (
            "tti_duration_s",
            "load_bps = 1.7e308\npacket_size_bytes = 1\nsubcarrier_spacing_hz = 1e308\n"
            "tti_duration_s = 1e-306\n",
        ),
        ("element_spacing_over_wavelength", "element_spacing_over_wavelength = 1e6\n"),
        ("element_spacing_over_wavelength", "element_spacing_over_wavelength = 1e308\n"),
    ],
    ids=lambda v: v[:40],
)
def test_past_the_bound_exits_1_before_any_cell(tmp_path, capsys, key, text):
    assert _validate_and_run(tmp_path, text) == ((1, 1), False)
    line = (TINY + text).count("\n")
    assert capsys.readouterr().err.count(f"line {line}: {key}") == 2


def test_diverging_training_runs_without_a_warning(tmp_path):
    """nn_learning_rate is open: training that diverges to inf and nan is
    accepted, so the run neither fails nor warns."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "tti_count = 200\nn_ues = 4\nn_clusters = 2\nn_beams = 2\nrbg_count = 4\n"
        "hidden_units = 4\nminibatch = 4\nreplay_capacity = 8\ntrain_interval_ttis = 2\n"
        "nn_learning_rate = 1e30\nscenarios = kmeans_exact\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
