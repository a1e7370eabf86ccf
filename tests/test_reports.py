"""A UE report is two points: `engine.inject_error`'s reported position
and PDF mean equal, bit for bit, the `reference.report_pdf` object read
through `reported_center` and `moments`, from the same draws; and the
rows a run clusters equal that oracle's."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim.engine import Scenario, ScenarioConfig, ScenarioRun, inject_error
from mmwavesim.geometry import Point2D
from mmwavesim.seeding import derive_seed, make_rng
from reference import moments, report_pdf, reported_center

# any finite coordinate, with both zeros often
COORDS = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)
# the accepted range, its signed zero, and a radius whose R^2 overflows
RMSE = st.sampled_from([0.0, -0.0, 1e6, 1e150]) | st.floats(0.0, 1e6)


def bits(*values) -> list:
    """The IEEE bytes of each value: -0.0 and 0.0 differ."""
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=3000, deadline=None)
@given(
    x=COORDS,
    y=COORDS,
    rmse=RMSE,
    informative=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    reports=st.integers(1, 3),
)
def test_inject_error_equals_the_pdf_oracle(x, y, rmse, informative, seed, reports):
    rng, ref_rng = make_rng(seed), make_rng(seed)
    for _ in range(reports):
        reported, mean = inject_error(Point2D(x, y), rmse, rng, informative)
        pdf = report_pdf(Point2D(x, y), rmse, ref_rng, informative)
        center = reported_center(pdf)
        means, _ = moments([pdf])
        assert all(type(v) is float for v in (*reported, *mean))
        assert bits(*reported) == bits(center.x, center.y)
        assert bits(*mean) == bits(*means[0])
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("informative", [False, True])
@pytest.mark.parametrize("scenario", list(Scenario))
def test_run_rows_equal_the_oracle(scenario, informative):
    cfg = ScenarioConfig(
        scenario=scenario,
        n_ues=7,
        error_rmse_m=30.0,
        informative_pdf=informative,
        move_interval_ttis=2,
        tti_count=9,
        runs=1,
    )
    seed = derive_seed(cfg.master_seed, 0)
    run = ScenarioRun(cfg, run_seed=seed, coverage_only=True)
    error_rng = make_rng(derive_seed(seed, 2))

    def check_rows():
        rows = run.true_xy.tolist()
        if scenario is not Scenario.KMEANS_EXACT:
            for u, (x, y) in enumerate(rows):
                pdf = report_pdf(Point2D(x, y), cfg.error_rmse_m, error_rng, informative)
                if scenario is Scenario.KMEANS_ERROR:
                    center = reported_center(pdf)
                    rows[u] = [center.x, center.y]
                else:
                    means, _ = moments([pdf])
                    rows[u] = means[0].tolist()
        for got, want in zip(run.believed_xy.tolist(), rows, strict=True):
            assert bits(*got) == bits(*want)

    check_rows()
    for t in range(cfg.tti_count):
        run.step(t)
        if t and t % cfg.move_interval_ttis == 0:
            check_rows()
    assert error_rng.bit_generator.state == run.error_rng.bit_generator.state
