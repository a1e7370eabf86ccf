"""The scheduling stage's decision split: `AgentStack.greedy`, computed once
per rollout-memo node, and `AgentStack.explorations`, drawn once per TTI for
all its RBGs, against `decide` and `_epsilon_greedy`; and the per-TTI mean
delay, an int sum over its count, against `np.mean`."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_schedule_stage import run_pair, step_and_compare

from mmwavesim import agent as agent_module
from mmwavesim.agent import AgentConfig, AgentStack, DqnAgent, _epsilon_greedy
from mmwavesim.engine import ScenarioConfig, ScenarioRun
from mmwavesim.seeding import derive_seed
from reference import decide, next_draws

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
    """Agents, their epsilons and TTIs, each a mask and the Q-rows of its RBGs."""
    n = draw(st.integers(1, 4))
    actions = draw(st.integers(1, 8))
    epsilons = [draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])) for _ in range(n)]
    ttis = []
    for _ in range(draw(st.integers(1, 3))):
        mask = np.array([draw(mask_rows(actions)) for _ in range(n)])
        rows = st.lists(Q_ENTRIES, min_size=actions, max_size=actions)
        qs = [np.array([draw(rows) for _ in range(n)]) for _ in range(draw(st.integers(1, 5)))]
        ttis.append((mask, qs))
    return actions, epsilons, ttis, draw(st.integers(0, 2**32 - 1))


def _agents(actions, epsilons, seed):
    return [
        DqnAgent(AgentConfig(action_count=actions, hidden_units=2, epsilon=eps, seed=seed + k))
        for k, eps in enumerate(epsilons)
    ]


class TestGreedyThenExplore:
    @settings(max_examples=300, deadline=None)
    @given(case=decisions())
    def test_equals_decide_and_epsilon_greedy(self, case):
        actions, epsilons, ttis, seed = case
        split = AgentStack(_agents(actions, epsilons, seed))
        whole = AgentStack(_agents(actions, epsilons, seed))
        by_row = _agents(actions, epsilons, seed)
        for mask, qs in ttis:
            feasible = [tuple(np.flatnonzero(row).tolist()) for row in mask]
            explored = split.explorations(feasible, len(qs))
            assert len(explored) == len(qs)
            for q, picks in zip(qs, explored):
                greedy = split.greedy(q, mask)
                picked = [picks.get(k, a) for k, a in enumerate(greedy)]
                assert picked == decide(whole, q, mask)
                for k, eps in enumerate(epsilons):
                    ref = _epsilon_greedy(q[k], np.flatnonzero(mask[k]), eps, by_row[k].action_rng)
                    assert picked[k] == ref
                    assert greedy[k] == _epsilon_greedy(q[k], np.flatnonzero(mask[k]), 0.0, None)
                    assert type(picked[k]) is int and mask[k, picked[k]]
                # every agent at epsilon 1 explores, and none at epsilon 0
                assert {k for k, eps in enumerate(epsilons) if eps == 1.0} <= picks.keys()
                assert not any(epsilons[k] == 0.0 for k in picks)
        for a, b, c in zip(split.draws, whole.draws, by_row):
            assert next_draws(a) == next_draws(b) == next_draws(c.action_rng)

    def test_exploring_leaves_the_greedy_list_alone(self):
        # every agent explores at every RBG, yet each memo node still holds the
        # greedy actions of its own Q-rows and the states they lead to
        cfg = ScenarioConfig(
            n_ues=6,
            n_clusters=2,
            n_beams=2,
            rbg_count=4,
            hidden_units=4,
            epsilon=1.0,
            tti_count=12,
            move_interval_ttis=100,
            train_interval_ttis=100,
            runs=1,
        )
        run = ScenarioRun(cfg, run_seed=derive_seed(cfg.master_seed, 0))
        for t in range(cfg.tti_count):
            run.step(t)
        memo, stack = run.geometry.memo, run.stack
        assert max(map(len, run.geometry.feasible)) > 1
        nodes, checked = [memo.root], 0
        while nodes:
            node = nodes.pop()
            for key, child in node.children.items():
                q, _ = stack.forward(np.asarray(key, dtype=float).reshape(-1, 1), node.carry)
                assert child.greedy == stack.greedy(q, memo.mask)
                assert child.greedy_states == memo.states(child.greedy)
                nodes.append(child)
                checked += 1
        assert checked > cfg.rbg_count


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
