"""A cross-field rule broken in a config file is reported at the line of
the first of the rule's keys that the file sets, like a range error."""

import pytest

from mmwavesim.cli import main
from mmwavesim.config import parse_config_text
from mmwavesim.engine import ScenarioConfig
from mmwavesim.errors import ConfigError

CLUSTERS = "n_clusters cannot exceed n_ues"
REPLAY = "minibatch cannot exceed replay_capacity"
ARRIVALS = "the mean arrivals per UE and TTI"
BANDWIDTH = "the RBG bandwidth 12 * subcarrier_spacing_hz * rbs_per_rbg must be finite"


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("tti_count = 6\nn_ues = 2\nn_clusters = 3\n", "line 3: ", CLUSTERS),
        ("n_clusters = 3\n# n_ues next\nn_ues = 2\n", "line 1: ", CLUSTERS),
        ("\nn_ues = 2\n", "line 2: ", CLUSTERS),  # n_clusters keeps its default
        ("replay_capacity = 10\nminibatch = 15\n", "line 2: ", REPLAY),
        ("replay_capacity = 10\n", "line 1: ", REPLAY),
        ("tti_count = 6\nload_bps = 1e300\n", "line 2: ", ARRIVALS),
        ("packet_size_bytes = 1\n\ntti_duration_s = 1\nload_bps = 1e6\n", "line 4: ", ARRIVALS),
        # a swept key is set by its sweep_values line
        ("sweep_variable = load_bps\ntti_count = 6\nsweep_values = 1e6,1e300\n", "line 3: ", ARRIVALS),
        ("sweep_variable = load_bps\nsweep_values =\nload_bps = 1e300\n", "line 3: ", ARRIVALS),
        ("sweep_values = 2,4\nn_ues = 2\nn_clusters = 3\n", "line 3: ", CLUSTERS),
        ("tti_count = 6\nsubcarrier_spacing_hz = 1e308\n", "line 2: ", BANDWIDTH),
        ("rbs_per_rbg = 275\n\nsubcarrier_spacing_hz = 1e306\n", "line 3: ", BANDWIDTH),
        ("subcarrier_spacing_hz = 1e306\nrbs_per_rbg = 275\n", "line 1: ", BANDWIDTH),
        ("tti_count = 6\n\nrbs_per_rbg = 275\n", None, None),  # 12 * 120 kHz * 275 is finite
    ],
)
def test_anchored_at_the_first_key_the_file_sets(text, where, message):
    if message is None:
        parse_config_text(text)
        return
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert str(info.value).startswith(where + message)


def test_validate_prints_the_anchor(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("tti_count = 6\nn_ues = 2\nn_clusters = 3\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: line 3: {CLUSTERS}\n"


def test_an_infinite_rbg_bandwidth_exits_1_before_running(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("tti_count = 20\nsubcarrier_spacing_hz = 1e308\ntx_power_dbm = -300\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: line 2: {BANDWIDTH}; they give inf")
    assert not (tmp_path / "out").exists()


def test_the_rule_text_itself_has_no_anchor():
    with pytest.raises(ConfigError, match=f"^{CLUSTERS}$") as info:
        ScenarioConfig(n_ues=2, n_clusters=3)
    assert info.value.keys == ("n_clusters", "n_ues")
