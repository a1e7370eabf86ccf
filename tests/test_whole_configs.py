"""Whole config texts, written from `config.KEYS` with values at and near each
range end, run through the command line as a user would: a config that
`validate` accepts runs to exit 0 with finite summary means, a rejected one
exits 1 from both commands and leaves no output directory, and no config makes
either command exit 2."""

import csv
import math
import sys
import tempfile
from enum import Enum
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim.cli import main
from mmwavesim.config import KEYS, SWEEPABLE
from mmwavesim.engine import Scenario
from mmwavesim.fields import fmt

BY_NAME = {key.name: key for key in KEYS}
# the keys that size a run's loops and arrays, each drawn from its lower end up
# to this value, so an example runs in milliseconds
TINY = {"tti_count": 4, "runs": 2, "n_ues": 3, "n_clusters": 3, "n_beams": 3, "rbg_count": 3,
        "hidden_units": 3, "minibatch": 4, "replay_capacity": 6, "cluster_max_iterations": 3}
# stand-ins for the end of an unbounded range
HUGE_INTS = (10**6, 2**63, 10**30)
HUGE_FLOATS = (1e6, 1e300, sys.float_info.max)


def _ends(key) -> tuple:
    """The values at and just inside each end of the key's range, and those
    just outside it (every int key's range is closed)."""
    rng = key.range
    if isinstance(key.default, int):
        lo, hi = int(rng.lo), rng.hi
        if hi < math.inf:
            return [lo, lo + 1, int(hi) - 1, int(hi)], [lo - 1, int(hi) + 1]
        return [lo, lo + 1, *HUGE_INTS], [lo - 1]
    inside, outside = [], []
    for end, inward in ((rng.lo, math.inf), (rng.hi, -math.inf)):
        if math.isinf(end):
            inside += [math.copysign(v, end) for v in HUGE_FLOATS]
            continue
        at = end if rng.closed else math.nextafter(end, inward)
        inside += [at, math.nextafter(at, inward)]
        outside += [math.nextafter(at, -inward)]
    return inside, outside


def values_of(key):
    """In-range values of the key: the tiny ones, or those at the ends."""
    if key.name in TINY:
        return st.integers(min_value=int(key.range.lo), max_value=TINY[key.name])
    if isinstance(key.default, bool):
        return st.booleans()
    if isinstance(key.default, Enum):
        return st.sampled_from(type(key.default))
    return st.sampled_from(_ends(key)[0] + [key.default])


# every field key but the position trace, which needs a file (`traces`)
FIELD_KEYS = [key for key in KEYS if key.path is not None and key.name != "position_trace_csv"]
RANGED_KEYS = [key for key in FIELD_KEYS if key.range is not None and key.name not in TINY]


@st.composite
def configs(draw, wide=True):
    """A config text, its field values and its scenario count: every tiny
    key, a scenario subset and a sweep; if `wide`, also a subset of the other
    field keys, at most one of them out of its range."""
    values = {key.name: draw(values_of(key)) for key in FIELD_KEYS
              if key.name in TINY or (wide and draw(st.booleans()))}
    for small, big in (("n_clusters", "n_ues"), ("minibatch", "replay_capacity")):
        values[small] = min(values[small], values[big])  # the size rules kept
    out_of_range = draw(st.none() | st.sampled_from(RANGED_KEYS)) if wide else None
    if out_of_range is not None:
        values[out_of_range.name] = draw(st.sampled_from(_ends(out_of_range)[1]))
    scenarios = draw(st.lists(st.sampled_from(list(Scenario)), min_size=1, max_size=3, unique=True))
    variable = draw(st.sampled_from(SWEEPABLE))
    sweep = draw(st.lists(values_of(BY_NAME[variable]), min_size=1, max_size=2))
    lines = [f"{name} = {fmt(value)}" for name, value in values.items()] + [
        "scenarios = " + ",".join(s.value for s in scenarios),
        f"sweep_variable = {variable}",
        "sweep_values = " + ",".join(fmt(v) for v in sweep),
    ]
    text = "\n".join(draw(st.permutations(lines))) + "\n"
    return text, values, len(scenarios)


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _undelivered(report: Path) -> bool:
    """Whether a run of the cell delivered no packet, so its mean delay, and
    with it the cell's, is nan."""
    delivered = {}
    for row in _rows(report):
        delivered[row["run"]] = delivered.get(row["run"], 0) + int(row["delivered_bits"])
    return 0 in delivered.values()


# trace rows at each end of the allowed distance from the gNB (1 mm and 1e6 m)
# and inside; just past the ends; and at huge in-bound coordinates
TRACE_DISTANCES = (1e-3, 1.0, 50.0, 3e5, 1e6)
PAST_TRACE_DISTANCES = (math.nextafter(1e-3, 0), math.nextafter(1e6, 2e6))
TRACE_POINTS = ((-1e6, 0.0), (0.0, 1e6), (7e5, -7e5), (-999_999.999, 1e-3))


@st.composite
def traces(draw, n_ues, tti_count):
    """A `tti,ue_id,x_m,y_m` text: rows at TTIs up to twice `tti_count` and
    at ue_ids below `n_ues` (so some UEs may never appear); rarely a row at
    TTI -1 or 10**6, at ue_id -1 or `n_ues`, or just past a distance bound,
    or the rows unsorted."""
    def rare(common, odd):
        return draw(st.sampled_from(odd)) if draw(st.integers(0, 9)) == 5 else draw(common)

    rows = {}
    for _ in range(draw(st.integers(1, 6))):
        tti = rare(st.integers(0, 2 * tti_count), (-1, 10**6))
        ue_id = rare(st.integers(0, n_ues - 1), (-1, n_ues))
        if draw(st.booleans()):
            x, y = draw(st.sampled_from(TRACE_POINTS))
        else:
            r = rare(st.sampled_from(TRACE_DISTANCES), PAST_TRACE_DISTANCES)
            angle = draw(st.sampled_from((0.0, 0.5, 1.0, 1.5))) * math.pi
            x, y = r * math.cos(angle), r * math.sin(angle)
        rows[tti, ue_id] = (x, y)
    rows = sorted(rows.items()) if draw(st.integers(0, 9)) else list(rows.items())
    return "tti,ue_id,x_m,y_m\n" + "".join(f"{t},{u},{x!r},{y!r}\n" for (t, u), (x, y) in rows)


def _validate_then_run(tmp, text, runs, n_scenarios):
    """A config that `validate` accepts runs to exit 0 with finite means;
    a rejected one exits 1 from `run` too and leaves no output."""
    path, out = Path(tmp) / "exp.cfg", Path(tmp) / "out"
    path.write_text(text)
    validated = main(["validate", "--config", str(path)])
    ran = main(["run", "--config", str(path), "--out", str(out), "--jobs", "1"])
    assert validated in (0, 1)
    assert ran == validated
    if validated == 1:
        assert not out.exists()
        return
    # three rows per cell, in cell order: by sweep value, then scenario
    for k, row in enumerate(_rows(out / "sweep_summary.csv")):
        mean, hw = float(row["mean"]), float(row["ci95_halfwidth"])
        cell = f"{row['scenario']}_{row['sweep_variable']}_{k // 3 // n_scenarios}"
        report = out / f"report_{cell}.csv"
        undelivered = row["metric"] == "mean_delay_ttis" and _undelivered(report)
        assert math.isfinite(mean) or undelivered, row
        assert math.isfinite(hw) or runs == 1 or undelivered, row


@settings(max_examples=300, deadline=None)
@given(config=configs())
def test_validate_decides_whether_run_succeeds(config):
    text, values, n_scenarios = config
    with tempfile.TemporaryDirectory() as tmp:
        _validate_then_run(tmp, text, values["runs"], n_scenarios)


@settings(max_examples=120, deadline=None)
@given(config=configs(wide=False), data=st.data())
def test_validate_decides_whether_a_traced_run_succeeds(config, data):
    text, values, n_scenarios = config
    trace = data.draw(traces(values["n_ues"], values["tti_count"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(trace)
        text += f"position_trace_csv = {path}\n"
        _validate_then_run(tmp, text, values["runs"], n_scenarios)
