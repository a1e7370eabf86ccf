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
    ],
)
def test_anchored_at_the_first_key_the_file_sets(text, where, message):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert str(info.value).startswith(where + message)


def test_validate_prints_the_anchor(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("tti_count = 6\nn_ues = 2\nn_clusters = 3\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: line 3: {CLUSTERS}\n"


def test_the_rule_text_itself_has_no_anchor():
    with pytest.raises(ConfigError, match=f"^{CLUSTERS}$") as info:
        ScenarioConfig(n_ues=2, n_clusters=3).validate()
    assert info.value.keys == ("n_clusters", "n_ues")
