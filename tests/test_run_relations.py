"""Whole-run relations that need no reference model: properties over small
random configs that compare one run with another."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim.engine import Scenario, ScenarioConfig, ScenarioRun
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
