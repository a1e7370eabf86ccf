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


# every field key but the position trace, which needs a file
FIELD_KEYS = [key for key in KEYS if key.path is not None and key.name != "position_trace_csv"]
RANGED_KEYS = [key for key in FIELD_KEYS if key.range is not None and key.name not in TINY]


@st.composite
def configs(draw):
    """A config text, its runs and its scenario count: every tiny key, a
    subset of the other field keys, at most one of them out of its range, a
    scenario subset and a sweep."""
    values = {key.name: draw(values_of(key)) for key in FIELD_KEYS
              if key.name in TINY or draw(st.booleans())}
    for small, big in (("n_clusters", "n_ues"), ("minibatch", "replay_capacity")):
        values[small] = min(values[small], values[big])  # the size rules kept
    out_of_range = draw(st.none() | st.sampled_from(RANGED_KEYS))
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
    return text, values["runs"], len(scenarios)


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


@settings(max_examples=300, deadline=None)
@given(config=configs())
def test_validate_decides_whether_run_succeeds(config):
    text, runs, n_scenarios = config
    with tempfile.TemporaryDirectory() as tmp:
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
