"""The config key table: round trips, rejections and the canonical text."""

import math
from dataclasses import MISSING, fields, replace
from enum import Enum
from operator import attrgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim import engine
from mmwavesim import fields as fields_module
from mmwavesim.agent import AgentConfig
from mmwavesim.beams import AntennaConfig
from mmwavesim.cli import main
from mmwavesim.clustering import ClusteringConfig
from mmwavesim.config import KEYS, SWEEPABLE, emit_config, parse_config_text
from mmwavesim.engine import MAX_ARRIVALS_PER_TTI, Scenario, ScenarioConfig, run_scenario
from mmwavesim.errors import ConfigError
from mmwavesim.fields import check_fields, fmt

BY_NAME = {key.name: key for key in KEYS}
FIELD_KEYS = [key for key in KEYS if key.path is not None]
RANGED_KEYS = [key for key in FIELD_KEYS if key.range is not None]
FLOAT_KEYS = [key for key in FIELD_KEYS if isinstance(key.default, float)]
# the keys that size a run's arrays and loops
SIZE_KEYS = ("n_ues", "n_beams", "rbg_count", "hidden_units", "n_antennas", "rbs_per_rbg",
             "packet_size_bytes", "tti_count", "runs", "cluster_max_iterations", "minibatch",
             "replay_capacity")

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
        return st.integers(min_value=lo, max_value=min(lo + 10**6, rng.hi))
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
        if rng.hi < math.inf:
            options.append(st.integers(min_value=rng.hi + 1, max_value=rng.hi + 10**6))
    return st.one_of(options)


def within_arrivals(load_bps, values):
    """`load_bps`, or 0.0 where it gives more than MAX_ARRIVALS_PER_TTI mean
    arrivals per UE and TTI at the TTI duration and packet size of `values`."""
    keep = {name: values.get(name, BY_NAME[name].default) for name in ("tti_duration_s", "packet_size_bytes")}
    mean = ScenarioConfig.arrivals_per_tti.fget(SimpleNamespace(load_bps=load_bps, **keep))
    return load_bps if mean <= MAX_ARRIVALS_PER_TTI else 0.0


@st.composite
def config_values(draw):
    """A subset of the field keys with in-range values, cross-field rules kept."""
    chosen = {key.name: draw(in_range(key)) for key in FIELD_KEYS if draw(st.booleans())}
    for small, big in (("n_clusters", "n_ues"), ("minibatch", "replay_capacity")):
        pair = [chosen.get(small, BY_NAME[small].default), chosen.get(big, BY_NAME[big].default)]
        chosen[small], chosen[big] = min(pair), pair[1]
    load = chosen.get("load_bps", BY_NAME["load_bps"].default)
    chosen["load_bps"] = within_arrivals(load, chosen)
    spacing, rbs = (chosen.get(k, BY_NAME[k].default) for k in ("subcarrier_spacing_hz", "rbs_per_rbg"))
    if not math.isfinite(12.0 * spacing * rbs):  # the RBG bandwidth rule
        chosen["subcarrier_spacing_hz"] = BY_NAME["subcarrier_spacing_hz"].default
    if 1e-3 / chosen.get("tti_duration_s", 1.0) > BY_NAME["qos_latency_ttis"].range.hi:
        # too short a TTI to derive the latency from
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
            parse_config_text("tti_duration_s = 5e-9\n")
        spec = parse_config_text("tti_duration_s = 5e-9\nqos_latency_ttis = 3\n")
        assert spec.base[0].qos_latency_ttis == 3

    @pytest.mark.parametrize("text", ["0", "nan"])
    def test_tti_duration_is_checked_before_the_latency_derives(self, text):
        got = "0.0" if text == "0" else text
        with pytest.raises(ConfigError, match=rf"^line 1: tti_duration_s must be in \[1e-09, inf\), got {got}$"):
            parse_config_text(f"tti_duration_s = {text}\n")

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
            ScenarioConfig(load_bps=math.inf)
        with pytest.raises(ConfigError, match="gamma"):
            ScenarioConfig(gamma=math.nan)
        with pytest.raises(ConfigError, match="qos_sinr_db"):
            ScenarioConfig(qos_sinr_db=math.nan)
        with pytest.raises(ConfigError, match="minibatch"):
            ScenarioConfig(minibatch=61)

    def test_replacing_a_spec_revalidates_its_cells(self):
        spec = parse_config_text(TINY)
        with pytest.raises(ConfigError, match="master_seed"):
            replace(spec, base=tuple(replace(c, master_seed=-3) for c in spec.base))
        with pytest.raises(ConfigError, match="n_beams"):
            replace(spec, values=(2, 0))


# a valid instance of each config class whose fields declare a range
VALID = {AgentConfig: AgentConfig(action_count=2), AntennaConfig: AntennaConfig(),
         ClusteringConfig: ClusteringConfig(k=2), ScenarioConfig: ScenarioConfig()}
RANGED_FIELDS = [(cls, f) for cls in VALID for f in fields(cls) if "range" in f.metadata]
# each ScenarioConfig cross-field rule, with the keys its error names
RULES = {
    "clusters": ("n_clusters", "n_ues"),
    "arrivals": ("load_bps", "tti_duration_s", "packet_size_bytes"),
    "replay": ("minibatch", "replay_capacity"),
}


@st.composite
def rule_breaks(draw, rule):
    """ScenarioConfig fields, in range, that break `rule`."""
    if rule == "clusters":
        n_ues = draw(st.integers(1, 999))
        return dict(n_ues=n_ues, n_clusters=draw(st.integers(n_ues + 1, 10**6)))
    if rule == "replay":
        capacity = draw(st.integers(1, 999))
        return dict(replay_capacity=capacity, minibatch=draw(st.integers(capacity + 1, 1000)))
    size = draw(st.integers(1, 65535))
    tti = draw(st.floats(1e-6, 1.0))
    least = MAX_ARRIVALS_PER_TTI * 8 * size / tti  # twice it is clear of rounding
    load = draw(st.floats(min_value=2 * least, allow_infinity=False))
    return dict(load_bps=load, tti_duration_s=tti, packet_size_bytes=size)


class TestValidByConstruction:
    """A config object is checked when it is built, `dataclasses.replace`
    included, and each error's keys name the fields at fault."""

    @pytest.mark.parametrize("cls, field", RANGED_FIELDS,
                             ids=[f"{cls.__name__}.{f.name}" for cls, f in RANGED_FIELDS])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_out_of_range_raises_when_built(self, cls, field, data):
        default = {"int": 0, "float": 0.0}[field.type]
        value = data.draw(out_of_range(SimpleNamespace(default=default, range=field.metadata["range"])))
        valid = VALID[cls]
        required = {f.name: getattr(valid, f.name) for f in fields(cls) if f.default is MISSING}
        for build in (lambda: cls(**{**required, field.name: value}),
                      lambda: replace(valid, **{field.name: value})):
            with pytest.raises(ConfigError) as info:
                build()
            assert info.value.keys == (field.name,)
            assert str(info.value).startswith(f"{field.name} must be ")

    @pytest.mark.parametrize("rule", RULES)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_a_broken_rule_raises_when_built(self, rule, data):
        broken = data.draw(rule_breaks(rule))
        for build in (lambda: ScenarioConfig(**broken), lambda: replace(ScenarioConfig(), **broken)):
            with pytest.raises(ConfigError) as info:
                build()
            assert info.value.keys == RULES[rule]

    def test_running_a_built_config_checks_no_range(self, monkeypatch):
        cfg = replace(parse_config_text(TINY).base[0], runs=5)
        checked = []

        def counted(obj):
            checked.append(type(obj))
            check_fields(obj)

        for module in (fields_module, engine):
            monkeypatch.setattr(module, "check_fields", counted)
        run_scenario(cfg)
        assert checked.count(ScenarioConfig) == 0


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

    @pytest.mark.parametrize(
        "text",
        [f"{key} = {value}\n" for key in SIZE_KEYS
         for value in (BY_NAME[key].range.hi + 1, 10**400)]
        + [f"sweep_values = 2,{BY_NAME['n_beams'].range.hi + 1}\n"],
        ids=lambda text: text.strip()[:24],
    )
    def test_oversized_key_exit_1_before_any_cell(self, tmp_path, capsys, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        key = text.split(" ")[0]
        assert capsys.readouterr().err.count(f"line 1: {key}") == 2

    @pytest.mark.parametrize(
        "text, first",
        [
            # a value is parsed before any range is checked
            ("n_ues = 0\nrbg_count = x\n", "line 2: invalid value for 'rbg_count': 'x'"),
            # the antenna is built before the scenario
            ("n_ues = 0\nn_antennas = 0\n", "line 2: n_antennas must be in [1, 4096], got 0"),
            # the scenarios are named before any is built
            ("scenarios = bogus\nn_ues = 0\n",
             "line 1: unknown scenario 'bogus' (expected one of "
             "['kmeans_error', 'kmeans_exact', 'ukmeans_error'])"),
        ],
    )
    def test_the_first_of_several_faults(self, tmp_path, capsys, text, first):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main(["validate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"config error: {first}\n"

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
