"""The scheduling stage's decision split: `AgentStack.greedy`, computed once
per rollout-memo node, and `AgentStack.explore`, drawn at every RBG, against
`decide` and `_epsilon_greedy`; and the per-TTI mean delay, an int sum over
its count, against `np.mean`."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_schedule_stage import run_pair, step_and_compare

from mmwavesim import agent as agent_module
from mmwavesim.agent import AgentConfig, AgentStack, DqnAgent, _epsilon_greedy
from mmwavesim.engine import ScenarioConfig, ScenarioRun
from mmwavesim.seeding import derive_seed
from reference import decide

# Q entries that give ties, NaN and both infinities
Q_ENTRIES = st.sampled_from([0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]) | st.floats(-2.0, 2.0)


@st.composite
def mask_rows(draw, actions):
    """A feasible set with at least one member, often exactly one."""
    if draw(st.booleans()):
        row = [False] * actions
        row[draw(st.integers(0, actions - 1))] = True
        return row
    return draw(st.lists(st.booleans(), min_size=actions, max_size=actions).filter(any))


@st.composite
def decisions(draw):
    n = draw(st.integers(1, 4))
    actions = draw(st.integers(1, 8))
    epsilons = [draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])) for _ in range(n)]
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        q = [draw(st.lists(Q_ENTRIES, min_size=actions, max_size=actions)) for _ in range(n)]
        mask = [draw(mask_rows(actions)) for _ in range(n)]
        rounds.append((np.array(q), np.array(mask)))
    return actions, epsilons, rounds, draw(st.integers(0, 2**32 - 1))


def _agents(actions, epsilons, seed):
    return [
        DqnAgent(AgentConfig(action_count=actions, hidden_units=2, epsilon=eps, seed=seed + k))
        for k, eps in enumerate(epsilons)
    ]


class TestGreedyThenExplore:
    @settings(max_examples=300, deadline=None)
    @given(case=decisions())
    def test_equals_decide_and_epsilon_greedy(self, case):
        actions, epsilons, rounds, seed = case
        split = AgentStack(_agents(actions, epsilons, seed))
        whole = AgentStack(_agents(actions, epsilons, seed))
        by_row = _agents(actions, epsilons, seed)
        for q, mask in rounds:
            feasible = [tuple(np.flatnonzero(row).tolist()) for row in mask]
            greedy = split.greedy(q, mask)
            picked = split.explore(greedy, feasible)
            assert picked == decide(whole, q, mask)
            for k, eps in enumerate(epsilons):
                ref = _epsilon_greedy(q[k], np.flatnonzero(mask[k]), eps, by_row[k].action_rng)
                assert picked[k] == ref
                assert greedy[k] == _epsilon_greedy(q[k], np.flatnonzero(mask[k]), 0.0, None)
                assert type(picked[k]) is int and mask[k, picked[k]]
            if not any(epsilons):
                assert picked is greedy
            elif 1.0 in epsilons:
                assert picked is not greedy
        for a, b, c in zip(split.agents, whole.agents, by_row):
            state = a.action_rng.bit_generator.state
            assert state == b.action_rng.bit_generator.state == c.action_rng.bit_generator.state

    def test_exploring_leaves_the_greedy_list_alone(self):
        stack = AgentStack(_agents(3, [1.0, 1.0], seed=7))
        greedy = [0, 1]
        picked = stack.explore(greedy, [(0, 1, 2), (1, 2)])
        assert greedy == [0, 1]
        assert picked is not greedy


def test_default_run_decides_greedily_once_per_forward(monkeypatch):
    calls = {"forward": 0, "greedy": 0}

    def counted(name):
        method = getattr(AgentStack, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(AgentStack, name, counted(name))
    cfg = ScenarioConfig(tti_count=200, runs=1)
    ScenarioRun(cfg, run_seed=derive_seed(cfg.master_seed, 0)).run()
    # the memo hits (most of the 200 * 24 RBG steps after the first of a
    # geometry) neither step the network nor decide greedily again
    assert 0 < calls["greedy"] == calls["forward"] < cfg.tti_count * cfg.rbg_count


def test_memo_past_a_small_cap_equals_the_mirror(monkeypatch):
    monkeypatch.setattr(agent_module, "ROLLOUT_MEMO_CAP", 3)
    cfg = ScenarioConfig(
        n_ues=5,
        n_clusters=2,
        n_beams=3,
        rbg_count=5,
        hidden_units=4,
        epsilon=0.3,
        load_bps=4e6,
        tti_count=40,
        move_interval_ttis=7,
        train_interval_ttis=9,
        replay_capacity=12,
        minibatch=4,
        runs=1,
    )
    run, mirror = run_pair(cfg)
    step_and_compare(run, mirror)
    assert run.geometry.memo.size == 3


@settings(max_examples=300, deadline=None)
@given(delays=st.lists(st.integers(0, 10**6), min_size=1, max_size=500))
def test_int_mean_delay_equals_numpy(delays):
    assert sum(delays) / len(delays) == float(np.mean(delays))


class DelayLog(ScenarioRun):
    """Keeps every TTI's delivered packet delays."""

    def _serve(self, t, budgets):
        delivered_bits, delays = super()._serve(t, budgets)
        self.delays.append(delays)
        return delivered_bits, delays


def test_every_record_mean_delay_equals_numpy():
    cfg = ScenarioConfig(tti_count=300, load_bps=4e6, runs=1)
    run = DelayLog(cfg, run_seed=derive_seed(cfg.master_seed, 0))
    run.delays = []
    records, _ = run.run()
    assert sum(map(bool, run.delays)) > cfg.tti_count // 2
    for record, delays in zip(records, run.delays, strict=True):
        want = float(np.mean(delays)) if delays else math.nan
        assert repr(record.mean_delay_ttis) == repr(want)
