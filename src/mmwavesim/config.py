"""Flat `key = value` experiment configs and sweep construction.

The file format is deliberately plain so experiment provenance diffs
cleanly: one `key = value` per line, `#` comments (a `#` at the start of
a line or after whitespace), blank lines ignored. Every key has a
default; unknown keys are errors. Units are suffixed in key names (_m,
_deg, _bps, _db, _hz, _s). An empty file is the default experiment: all
three scenarios, a single sweep point, and the defaults that
`emit_config` prints.

`KEYS` lists every key once, in emission order. Its rows are read off
the `ScenarioConfig` and `AntennaConfig` fields, which declare each
default and range (see `fields.ranged`): parsing and `emit_config` read
the defaults, and a config checks the ranges when it is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import NamedTuple, Optional

from .beams import AntennaConfig
from .engine import Scenario, ScenarioConfig
from .errors import ConfigError
from .fields import Range, fmt

__all__ = ["SweepSpec", "parse_config", "parse_config_text", "emit_config", "SWEEPABLE", "KEYS"]

SWEEPABLE = ("n_beams", "beam_width_deg", "load_bps")


@dataclass(frozen=True)
class SweepSpec:
    """A valid sweep: constructing one (also via `replace`) builds, so checks, every cell."""

    variable: str
    values: tuple
    base: tuple  # one ScenarioConfig per requested scenario

    def __post_init__(self):
        self.cells()

    def cells(self):
        """(scenario_config, value) pairs in deterministic order."""
        out = []
        for value in self.values:
            for cfg in self.base:
                out.append((replace(cfg, **{self.variable: value}), value))
        return out


class Key(NamedTuple):
    name: str  # spelling in the config file
    path: Optional[str]  # ScenarioConfig attribute ("antenna.<field>"); None for sweep keys
    default: object  # also gives the value type
    range: Optional[Range]


# config names that differ from the field name
_RENAMED = {"trace_csv": "position_trace_csv"}
# file-only default and range: qos_latency_ttis = 0 derives 1 ms / tti_duration_s
_LATENCY = ScenarioConfig.__dataclass_fields__["qos_latency_ttis"].metadata["range"]
_PARSE_TIME = {"qos_latency_ttis": (0, Range(0, _LATENCY.hi))}


def _field_keys(cls, prefix=""):
    for f in fields(cls):
        if f.name == "antenna":
            yield from _field_keys(AntennaConfig, "antenna.")
        elif f.name != "scenario":
            path = prefix + f.name
            default, rng = _PARSE_TIME.get(path, (f.default, f.metadata.get("range")))
            yield Key(_RENAMED.get(path, f.name), path, default, rng)


KEYS = (
    Key("scenarios", None, ",".join(s.value for s in Scenario), None),
    Key("sweep_variable", None, SWEEPABLE[0], None),
    Key("sweep_values", None, "", None),
    *_field_keys(ScenarioConfig),
)
_BY_NAME = {key.name: key for key in KEYS}


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# a comment starts at a `#` that begins the line or follows whitespace, so a
# value such as a path may hold `#`
_COMMENT = re.compile(r"(?:^|(?<=\s))#")


def _parse_lines(text: str):
    """Raw key -> (string value, line number), with line-anchored errors."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _BY_NAME:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


def _parse_value(key: Key, text: str, lineno: int):
    parse = _parse_bool if isinstance(key.default, bool) else type(key.default)
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"line {lineno}: invalid value for {key.name!r}: {text!r}") from None


def _where(raw: dict, name: str) -> str:
    return f"line {raw[name][1]}: " if name in raw else ""


def _scenarios(values: dict, raw: dict):
    where = _where(raw, "scenarios")
    names = [s.strip() for s in values["scenarios"].split(",") if s.strip()]
    if not names:
        raise ConfigError(f"{where}scenarios must name at least one scenario")
    by_value = {s.value: s for s in Scenario}
    scenarios = []
    for name in names:
        if name not in by_value:
            raise ConfigError(f"{where}unknown scenario {name!r} (expected one of {sorted(by_value)})")
        if by_value[name] in scenarios:
            raise ConfigError(f"{where}scenario {name!r} listed twice")
        scenarios.append(by_value[name])
    return scenarios


def _sweep_values(variable: str, values: dict, raw: dict) -> tuple:
    """The swept values, parsed like the key they replace."""
    if variable not in SWEEPABLE:
        raise ConfigError(
            f"{_where(raw, 'sweep_variable')}sweep_variable must be one of {SWEEPABLE}, got {variable!r}"
        )
    if not values["sweep_values"]:
        return (values[variable],)
    where = f"{_where(raw, 'sweep_values')}sweep_values: "
    try:
        numbers = [float(v) for v in values["sweep_values"].split(",")]
    except ValueError:
        raise ConfigError(f"{where}expected comma-separated numbers") from None
    if isinstance(_BY_NAME[variable].default, int):
        if not all(v.is_integer() for v in numbers):
            raise ConfigError(f"{where}a sweep over {variable} needs integers")
        numbers = [int(v) for v in numbers]
    return tuple(numbers)


def parse_config_text(text: str) -> SweepSpec:
    """Parse config text into a SweepSpec (see `parse_config`)."""
    raw = _parse_lines(text)
    values = {
        key.name: _parse_value(key, *raw[key.name]) if key.name in raw else key.default
        for key in KEYS
    }
    variable, cells = values["sweep_variable"], False
    try:
        _BY_NAME["qos_latency_ttis"].range.check("qos_latency_ttis", values["qos_latency_ttis"])
        if values["qos_latency_ttis"] == 0:  # 1 ms, once tti_duration_s is known to divide it
            _BY_NAME["tti_duration_s"].range.check("tti_duration_s", values["tti_duration_s"])
            ttis_per_ms = 1e-3 / values["tti_duration_s"]
            if not ttis_per_ms <= _LATENCY.hi:
                raise ConfigError(
                    f"tti_duration_s is too small to derive qos_latency_ttis = 1 ms / "
                    f"tti_duration_s {_LATENCY}; set qos_latency_ttis",
                    ("tti_duration_s",),
                )
            values["qos_latency_ttis"] = max(1, round(ttis_per_ms))
        top, antenna = {}, {}
        for key in KEYS:
            if key.path is not None:
                owner, _, name = key.path.rpartition(".")
                (antenna if owner else top)[name] = values[key.name]
        top["antenna"] = AntennaConfig(**antenna)
        base = tuple(ScenarioConfig(scenario=s, **top) for s in _scenarios(values, raw))
        swept = _sweep_values(variable, values, raw)
        cells = bool(values["sweep_values"])  # a cell's error comes from its swept value
        return SweepSpec(variable=variable, values=swept, base=base)
    except ConfigError as exc:  # anchor it at the first of its keys the file sets
        keys = ["sweep_values" if cells and k == variable else k for k in exc.keys]
        where = next((_where(raw, key) for key in keys if key in raw), "")
        if cells and exc.keys == (variable,):  # a swept value out of range
            where += "sweep_values: "
        raise ConfigError(f"{where}{exc}", exc.keys) from None


def parse_config(path) -> SweepSpec:
    """Load and validate a config file.

    Raises ConfigError with a line-anchored message on unknown keys,
    malformed syntax or out-of-range values; sweep values and the
    cross-field rules are checked for every sweep cell.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def emit_config(spec: SweepSpec) -> str:
    """Canonical text for the effective configuration.

    `parse_config_text(emit_config(spec))` reconstructs an equal spec.
    """
    sweep = {
        "scenarios": ",".join(c.scenario.value for c in spec.base),
        "sweep_variable": spec.variable,
        "sweep_values": ",".join(fmt(v) for v in spec.values),
    }
    lines = []
    for key in KEYS:
        value = sweep[key.name] if key.path is None else attrgetter(key.path)(spec.base[0])
        lines.append(f"{key.name} = {fmt(value)}")
    return "\n".join(lines) + "\n"
