"""The config key table: round trips, rejections and the canonical text."""

import math
from dataclasses import fields, replace
from enum import Enum
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim.agent import AgentConfig
from mmwavesim.beams import AntennaConfig
from mmwavesim.cli import main
from mmwavesim.clustering import ClusteringConfig
from mmwavesim.config import KEYS, SWEEPABLE, emit_config, parse_config_text
from mmwavesim.engine import MAX_ARRIVALS_PER_TTI, Scenario, ScenarioConfig
from mmwavesim.errors import ConfigError
from mmwavesim.fields import fmt

BY_NAME = {key.name: key for key in KEYS}
FIELD_KEYS = [key for key in KEYS if key.path is not None]
RANGED_KEYS = [key for key in FIELD_KEYS if key.range is not None]
FLOAT_KEYS = [key for key in FIELD_KEYS if isinstance(key.default, float)]

EMPTY_CONFIG_TEXT = """\
scenarios = kmeans_error,ukmeans_error,kmeans_exact
sweep_variable = n_beams
sweep_values = 3
n_ues = 6
n_clusters = 3
n_beams = 3
beam_width_deg = 20.0
cell_radius_m = 160.0
error_rmse_m = 8.0
informative_pdf = false
tti_count = 1400
tti_duration_s = 0.000125
move_interval_ttis = 10
qos_latency_ttis = 8
qos_sinr_db = 15.0
runs = 5
master_seed = 12345
load_bps = 2000000.0
packet_size_bytes = 32
rbg_count = 24
gamma = 0.9
epsilon = 0.1
nn_learning_rate = 0.01
hidden_units = 20
minibatch = 20
replay_capacity = 60
train_interval_ttis = 60
target_copy_interval_ttis = 120
cluster_max_iterations = 100
cluster_convergence_epsilon = 1e-06
cluster_init = farthest_first
n_antennas = 1024
element_spacing_over_wavelength = 0.5
carrier_frequency_hz = 28000000000.0
tx_power_dbm = 30.0
noise_power_dbm = -94.0
subcarrier_spacing_hz = 120000.0
rbs_per_rbg = 2
""" + "position_trace_csv = \n"  # an empty value keeps the space after "="

TINY = (
    "tti_count = 6\nruns = 1\nn_ues = 2\nn_clusters = 1\nn_beams = 1\n"
    "rbg_count = 2\nhidden_units = 4\nminibatch = 4\nreplay_capacity = 8\n"
)


def in_range(key):
    """Values the key accepts."""
    default, rng = key.default, key.range
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, Enum):
        return st.sampled_from(type(default))
    if isinstance(default, str):
        return st.text(alphabet="abc/._-", max_size=12)
    if isinstance(default, int):
        lo = int(rng.lo) if rng.closed else int(rng.lo) + 1
        return st.integers(min_value=lo, max_value=lo + 10**6)
    finite_lo, finite_hi = rng.lo > -math.inf, rng.hi < math.inf
    return st.floats(
        min_value=rng.lo if finite_lo else None,
        max_value=rng.hi if finite_hi else None,
        exclude_min=finite_lo and not rng.closed,
        exclude_max=finite_hi and not rng.closed,
        allow_nan=False,
        allow_infinity=False,
    )


def out_of_range(key):
    """Values the key rejects: below or above its range, or not finite."""
    rng = key.range
    options = []
    if isinstance(key.default, float):
        options.append(st.sampled_from([math.nan, math.inf, -math.inf]))
        if rng.lo > -math.inf:
            below = st.floats(max_value=rng.lo, allow_nan=False, allow_infinity=False)
            options.append(below.filter(lambda v: v < rng.lo or not rng.closed))
        if rng.hi < math.inf:
            above = st.floats(min_value=rng.hi, allow_nan=False, allow_infinity=False)
            options.append(above.filter(lambda v: v > rng.hi or not rng.closed))
    else:
        top = int(rng.lo) - 1 if rng.closed else int(rng.lo)
        options.append(st.integers(min_value=top - 10**6, max_value=top))
    return st.one_of(options)


def within_arrivals(load_bps, values):
    """`load_bps`, or 0.0 where it gives more than MAX_ARRIVALS_PER_TTI mean
    arrivals per UE and TTI at the TTI duration and packet size of `values`."""
    keep = {name: values[name] for name in ("tti_duration_s", "packet_size_bytes") if name in values}
    mean = ScenarioConfig(load_bps=load_bps, **keep).arrivals_per_tti
    return load_bps if mean <= MAX_ARRIVALS_PER_TTI else 0.0


@st.composite
def config_values(draw):
    """A subset of the field keys with in-range values, cross-field rules kept."""
    chosen = {key.name: draw(in_range(key)) for key in FIELD_KEYS if draw(st.booleans())}
    for small, big in (("n_clusters", "n_ues"), ("minibatch", "replay_capacity")):
        pair = [chosen.get(small, BY_NAME[small].default), chosen.get(big, BY_NAME[big].default)]
        chosen[small], chosen[big] = min(pair), max(pair)
    load = chosen.get("load_bps", BY_NAME["load_bps"].default)
    chosen["load_bps"] = within_arrivals(load, chosen)
    if 1e-3 / chosen.get("tti_duration_s", 1.0) == math.inf:  # nothing to derive from
        chosen["qos_latency_ttis"] = draw(in_range(BY_NAME["qos_latency_ttis"]).filter(bool))
    return chosen


class TestTable:
    @settings(max_examples=200, deadline=None)
    @given(
        values=config_values(),
        scenarios=st.lists(st.sampled_from(list(Scenario)), min_size=1, max_size=3, unique=True),
        variable=st.sampled_from(SWEEPABLE),
        data=st.data(),
    )
    def test_emit_then_parse_is_identity(self, values, scenarios, variable, data):
        sweep_value = in_range(BY_NAME[variable])
        if variable == "load_bps":
            sweep_value = sweep_value.map(lambda load: within_arrivals(load, values))
        sweep = data.draw(st.lists(sweep_value, min_size=1, max_size=4))
        lines = [f"{name} = {fmt(value)}" for name, value in values.items()]
        lines += [
            "scenarios = " + ",".join(s.value for s in scenarios),
            f"sweep_variable = {variable}",
            "sweep_values = " + ",".join(fmt(v) for v in sweep),
        ]
        spec = parse_config_text("\n".join(lines) + "\n")
        assert [c.scenario for c in spec.base] == scenarios
        assert spec.values == tuple(sweep)
        for name, value in values.items():
            if not (name == "qos_latency_ttis" and value == 0):
                assert attrgetter(BY_NAME[name].path)(spec.base[0]) == value
        assert parse_config_text(emit_config(spec)) == spec

    @pytest.mark.parametrize("key", RANGED_KEYS, ids=lambda k: k.name)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_out_of_range_names_key_and_line(self, key, data):
        value = data.draw(out_of_range(key))
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"# line one\n{key.name} = {fmt(value)}\n")
        assert str(exc.value).startswith(f"line 2: {key.name} ")

    @pytest.mark.parametrize("key", FLOAT_KEYS, ids=lambda k: k.name)
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, key, text):
        with pytest.raises(ConfigError, match=f"line 1: {key.name} must be in "):
            parse_config_text(f"{key.name} = {text}\n")

    @pytest.mark.parametrize(
        "name, text",
        [("n_ues", "1.5"), ("tti_duration_s", "fast"), ("informative_pdf", "maybe"),
         ("cluster_init", "bogus")],
    )
    def test_malformed_value_names_key_and_line(self, name, text):
        with pytest.raises(ConfigError, match=f"line 2: invalid value for '{name}'"):
            parse_config_text(f"runs = 1\n{name} = {text}\n")

    def test_qos_latency_needs_a_derivable_tti_duration(self):
        with pytest.raises(ConfigError, match="line 1: tti_duration_s is too small"):
            parse_config_text("tti_duration_s = 5e-324\n")
        spec = parse_config_text("tti_duration_s = 5e-324\nqos_latency_ttis = 3\n")
        assert spec.base[0].qos_latency_ttis == 3

    def test_every_scenario_field_has_one_key(self):
        paths = {key.path for key in FIELD_KEYS}
        top = {f.name for f in fields(ScenarioConfig)} - {"scenario", "antenna"}
        antenna = {f"antenna.{f.name}" for f in fields(AntennaConfig)}
        assert paths == top | antenna
        assert len({key.name for key in KEYS}) == len(KEYS)

    @pytest.mark.parametrize(
        "cls, name, scenario_name",
        [(AgentConfig, n, n) for n in ("gamma", "epsilon", "nn_learning_rate", "hidden_units",
                                       "minibatch", "replay_capacity", "train_interval_ttis",
                                       "target_copy_interval_ttis")]
        + [(ClusteringConfig, "max_iterations", "cluster_max_iterations"),
           (ClusteringConfig, "convergence_epsilon", "cluster_convergence_epsilon")],
    )
    def test_component_configs_share_the_range(self, cls, name, scenario_name):
        ours = ScenarioConfig.__dataclass_fields__[scenario_name]
        theirs = cls.__dataclass_fields__[name]
        assert ours.metadata["range"] is theirs.metadata["range"]
        assert ours.metadata["same_as"] == (cls, name)

    def test_component_constructors_reject_non_finite(self):
        with pytest.raises(ConfigError, match="tx_power_dbm"):
            AntennaConfig(tx_power_dbm=math.nan)
        with pytest.raises(ConfigError, match="nn_learning_rate"):
            AgentConfig(action_count=2, nn_learning_rate=math.inf)

    def test_validate_applies_the_ranges(self):
        with pytest.raises(ConfigError, match="load_bps"):
            ScenarioConfig(load_bps=math.inf).validate()
        with pytest.raises(ConfigError, match="gamma"):
            ScenarioConfig(gamma=math.nan).validate()
        with pytest.raises(ConfigError, match="qos_sinr_db"):
            ScenarioConfig(qos_sinr_db=math.nan).validate()
        with pytest.raises(ConfigError, match="minibatch"):
            ScenarioConfig(minibatch=61).validate()

    def test_replacing_a_spec_revalidates_its_cells(self):
        spec = parse_config_text(TINY)
        with pytest.raises(ConfigError, match="master_seed"):
            replace(spec, base=tuple(replace(c, master_seed=-3) for c in spec.base))
        with pytest.raises(ConfigError, match="n_beams"):
            replace(spec, values=(2, 0))


class TestCli:
    def test_validate_empty_config_text_is_pinned(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == EMPTY_CONFIG_TEXT

    @pytest.mark.parametrize(
        "sweep",
        [
            "sweep_variable = beam_width_deg\nsweep_values = 200\n",
            "sweep_variable = load_bps\nsweep_values = -5\n",
            "sweep_variable = load_bps\nsweep_values = nan\n",
            "sweep_values = 2,0\n",
        ],
    )
    def test_bad_sweep_values_exit_1_before_any_cell(self, tmp_path, capsys, sweep):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + sweep)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        last_line = (TINY + sweep).count("\n")
        assert f"line {last_line}: sweep_values: " in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["load_bps = inf\n", "cell_radius_m = inf\n",
                                      "tx_power_dbm = nan\n", "qos_sinr_db = nan\n"])
    def test_non_finite_key_exit_1_before_any_cell(self, tmp_path, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    def test_seed_override_is_range_checked(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "-3"]) == 1
        assert not out.exists()
        assert "master_seed" in capsys.readouterr().err


class TestComments:
    def test_hash_inside_a_value_round_trips(self):
        spec = parse_config_text("position_trace_csv = traces/run#2.csv\n")
        assert spec.base[0].trace_csv == "traces/run#2.csv"
        assert "position_trace_csv = traces/run#2.csv\n" in emit_config(spec)
        assert parse_config_text(emit_config(spec)) == spec

    @pytest.mark.parametrize(
        "text", ["n_ues = 6 # six\n", "n_ues = 6\t# six\n", "# n_ues = 2\nn_ues = 6\n"]
    )
    def test_hash_after_whitespace_starts_a_comment(self, text):
        assert parse_config_text(text).base[0].n_ues == 6

    def test_validate_prints_the_whole_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # validate reads the trace, so it must exist
        (tmp_path / "traces").mkdir()
        (tmp_path / "traces" / "run#2.csv").write_text("tti,ue_id,x_m,y_m\n0,0,30,10\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("position_trace_csv = traces/run#2.csv  # the second run\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "position_trace_csv = traces/run#2.csv\n" in capsys.readouterr().out
