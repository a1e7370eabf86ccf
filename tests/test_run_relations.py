"""Whole-run relations that need no reference model: properties over small
random configs that compare one run with another."""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim.cli import run_sweep
from mmwavesim.config import SweepSpec
from mmwavesim.engine import (
    Scenario,
    ScenarioConfig,
    ScenarioRun,
    run_scenario,
    write_per_tti_csv,
    write_summary_csv,
)
from mmwavesim.geometry import Point2D
from mmwavesim.seeding import derive_seed


@st.composite
def prefix_cases(draw):
    """A config of T TTIs whose movement, training and target sync intervals,
    and so its scheduling windows, end inside the run, and a T' < T."""
    n_ues = draw(st.integers(1, 6))
    tti_count = draw(st.integers(2, 40))
    capacity = draw(st.integers(1, 24))
    cfg = ScenarioConfig(
        scenario=draw(st.sampled_from(Scenario)),
        n_ues=n_ues,
        n_clusters=draw(st.integers(1, n_ues)),
        n_beams=draw(st.integers(1, 5)),
        tti_count=tti_count,
        move_interval_ttis=draw(st.integers(1, 13)),
        train_interval_ttis=draw(st.integers(1, 13)),
        target_copy_interval_ttis=draw(st.integers(1, 13)),
        epsilon=draw(st.sampled_from([0.0, 0.1, 0.5])),
        rbg_count=draw(st.integers(1, 4)),
        hidden_units=4,
        replay_capacity=capacity,
        minibatch=draw(st.integers(1, capacity)),
        master_seed=draw(st.integers(0, 2**32)),
    )
    return cfg, draw(st.integers(1, tti_count - 1))


@settings(max_examples=300, deadline=None)
@given(case=prefix_cases())
def test_a_shorter_run_is_a_prefix(case):
    """The first T' rows of a T-TTI run equal a T'-TTI run at the same run
    seed, bit for bit: tti_count decides which experiences are pushed, but
    none that a training sample reads."""
    cfg, shorter = case
    seed = derive_seed(cfg.master_seed, 0)
    long_columns, _ = ScenarioRun(cfg, seed).run()
    short_columns, _ = ScenarioRun(replace(cfg, tti_count=shorter), seed).run()
    for long, short in zip(long_columns, short_columns, strict=True):
        assert long[:shorter].tobytes() == short.tobytes()


@st.composite
def mirror_cases(draw):
    """A config whose clustered positions are the true ones (`kmeans_exact`,
    or `kmeans_error` at no error) and a position trace that lists every UE
    at TTI 0, and some of them at up to two later TTIs."""
    n_ues = draw(st.integers(2, 10))
    tti_count = draw(st.integers(2, 12))
    cfg = ScenarioConfig(
        scenario=draw(st.sampled_from([Scenario.KMEANS_EXACT, Scenario.KMEANS_ERROR])),
        error_rmse_m=0.0,
        n_ues=n_ues,
        n_clusters=draw(st.integers(1, n_ues)),
        n_beams=draw(st.integers(1, 8)),
        beam_width_deg=draw(st.floats(1.0, 120.0)),
        epsilon=draw(st.sampled_from([0.0, 0.1, 0.5])),
        tti_count=tti_count,
        train_interval_ttis=draw(st.integers(1, 6)),
        rbg_count=draw(st.integers(1, 4)),
        hidden_units=4,
        replay_capacity=8,
        minibatch=4,
        runs=1,
        master_seed=draw(st.integers(0, 2**32)),
    )
    polar = st.tuples(st.floats(1.0, cfg.cell_radius_m), st.floats(-math.pi, math.pi))
    later = draw(st.sets(st.integers(1, tti_count - 1), max_size=2))
    trace = {}
    for t in [0, *sorted(later)]:
        ues = range(n_ues) if t == 0 else sorted(draw(st.sets(st.integers(0, n_ues - 1), min_size=1)))
        points = [draw(polar) for _ in ues]
        trace[t] = [(u, Point2D(r * math.cos(a), r * math.sin(a))) for u, (r, a) in zip(ues, points)]
    return cfg, trace


@settings(max_examples=150, deadline=None)
@given(case=mirror_cases())
def test_a_mirrored_trace_runs_to_the_same_bytes(case):
    """A traced run and the run of its y -> -y mirror write the same columns
    and summary, bit for bit: the cell is symmetric about the x axis, and
    angles, squared distances and sums of negated values are negated or kept
    exactly."""
    cfg, trace = case
    mirror = {t: [(u, Point2D(p.x, -p.y)) for u, p in rows] for t, rows in trace.items()}
    seed = derive_seed(cfg.master_seed, 0)
    columns, summary = ScenarioRun(cfg, seed, trace).run()
    mirror_columns, mirror_summary = ScenarioRun(cfg, seed, mirror).run()
    for column, mirrored in zip(columns, mirror_columns, strict=True):
        assert column.tobytes() == mirrored.tobytes()
    assert repr(summary) == repr(mirror_summary)


@st.composite
def small_cells(draw):
    n_ues = draw(st.integers(1, 4))
    return ScenarioConfig(
        scenario=draw(st.sampled_from(Scenario)),
        n_ues=n_ues,
        n_clusters=draw(st.integers(1, n_ues)),
        n_beams=draw(st.integers(1, 3)),
        epsilon=draw(st.sampled_from([0.0, 0.1])),
        tti_count=draw(st.integers(1, 12)),
        move_interval_ttis=draw(st.integers(1, 6)),
        train_interval_ttis=draw(st.integers(1, 6)),
        rbg_count=draw(st.integers(1, 3)),
        hidden_units=2,
        replay_capacity=6,
        minibatch=3,
        runs=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=20, deadline=None)
@given(cfg=small_cells(), more=st.integers(1, 2))
def test_a_run_does_not_depend_on_how_many_runs_its_cell_has(cfg, more):
    """Run i of a cell equals run i of the same cell with more runs: a run's
    seed is derived from the master seed and its index alone."""
    report = run_scenario(cfg)
    longer = run_scenario(replace(cfg, runs=cfg.runs + more))
    assert repr(report.summaries) == repr(longer.summaries[: cfg.runs])
    for columns, wider in zip(report.records, longer.records):
        for column, other in zip(columns, wider, strict=True):
            assert column.tobytes() == other.tobytes()


def test_a_sweep_cell_equals_the_cell_run_alone(tmp_path):
    """Each cell of `run_sweep` writes the CSVs that `write_per_tti_csv` and
    `write_summary_csv` write of `run_scenario` on that cell alone."""
    base = tuple(
        ScenarioConfig(scenario=s, n_ues=4, n_clusters=2, tti_count=30, rbg_count=3, runs=2)
        for s in (Scenario.KMEANS_ERROR, Scenario.UKMEANS_ERROR)
    )
    spec = SweepSpec("load_bps", (1e6, 4e6), base)
    assert run_sweep(spec, str(tmp_path / "sweep")) == 0
    for cfg, value in spec.cells():
        index = spec.values.index(value)
        stem = f"{cfg.scenario.value}_{spec.variable}_{index}.csv"
        report = run_scenario(cfg)
        for kind, write in (("report", write_per_tti_csv), ("summary", write_summary_csv)):
            alone = tmp_path / f"{kind}_alone_{stem}"
            write(report, alone)
            assert (tmp_path / "sweep" / f"{kind}_{stem}").read_bytes() == alone.read_bytes()
