"""The scheduling stage's decision split: `AgentStack.greedy`, computed once
per rollout-memo node, and `AgentStack.explorations`, drawn once per TTI for
all its RBGs, against `decide` and `_epsilon_greedy`; and the per-TTI mean
delay, an int sum over its count, against `np.mean`."""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_schedule_stage import run_pair, step_and_compare

from mmwavesim import agent as agent_module
from mmwavesim.agent import (
    BEAM_BYTES,
    NODE_BYTES,
    ROLLOUT_MEMO_BYTES,
    AgentConfig,
    AgentStack,
    DqnAgent,
    DrawSource,
    ReplayMemory,
    RolloutMemo,
    _epsilon_greedy,
)
from mmwavesim.engine import ScenarioConfig, ScenarioRun
from mmwavesim.seeding import derive_seed
from reference import RawStub, ScalarDrawSource, decide, next_draws, with_picks

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
                picked = with_picks(greedy, picks)
                assert picked == decide(whole, q, mask)
                for k, eps in enumerate(epsilons):
                    ref = _epsilon_greedy(q[k], np.flatnonzero(mask[k]), eps, by_row[k].action_rng)
                    assert picked[k] == ref
                    assert greedy[k] == _epsilon_greedy(q[k], np.flatnonzero(mask[k]), 0.0, None)
                    assert type(picked[k]) is int and mask[k, picked[k]]
                # every agent at epsilon 1 with a choice explores, none at
                # epsilon 0, and none with one member is listed
                listed = [k for k, _ in picks or ()]
                assert listed == sorted(set(listed))
                choosers = {k for k, row in enumerate(feasible) if len(row) > 1}
                assert {k for k, eps in enumerate(epsilons) if eps == 1.0} & choosers <= set(listed)
                assert set(listed) <= {k for k, eps in enumerate(epsilons) if eps > 0.0} & choosers
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


# epsilon 0 (no draw), the smallest and largest positive doubles below 1 and 1
EXPLORATION_EPSILONS = (0.0, 5e-324, 0.1, 1 - 2**-53, 1.0)


def _raws_near_bounds():
    """Raw draws at and next to the bound of each epsilon, 2**11 * ceil(epsilon
    * 2**53), below which `random()` < epsilon; and the stream's extremes."""
    values = {0, 1, 2**64 - 1}
    for eps in EXPLORATION_EPSILONS:
        bound = math.ceil(eps * 2**53) * 2**11
        values.update(bound + d for d in (-(2**11), -1, 0, 1, 2**11 - 1))
    return sorted(v for v in values if 0 <= v < 2**64)


NEAR_BOUNDS = _raws_near_bounds()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_explorations_equal_epsilon_greedy_across_refills(data):
    # each agent's raw stream is half values at an exploration bound, so a
    # scan that is off by one draw or one bound value picks differently
    n = data.draw(st.integers(1, 4), label="agents")
    epsilons = [data.draw(st.sampled_from(EXPLORATION_EPSILONS)) for _ in range(n)]
    feasible = [tuple(range(1, 1 + data.draw(st.integers(1, 5)))) for _ in range(n)]
    rbgs, ttis = data.draw(st.integers(26, 40), label="rbgs"), data.draw(st.integers(5, 7))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def raw():
        if rng.random() < 0.5:
            return NEAR_BOUNDS[rng.integers(len(NEAR_BOUNDS))]
        return int(rng.integers(2**64, dtype=np.uint64))

    streams = [[raw() for _ in range(2 * rbgs * ttis)] for _ in range(n)]
    stack = AgentStack(_agents(6, epsilons, 0))
    stack.draws = [DrawSource(RawStub(raws), eps) for raws, eps in zip(streams, epsilons)]
    oracles = [ScalarDrawSource(RawStub(raws)) for raws in streams]
    q = np.arange(6.0)  # the greedy action is the last member
    for _ in range(ttis):  # rbgs * ttis > 128: the scans cross a refill
        for picks in stack.explorations(feasible, rbgs):
            picked = with_picks([members[-1] for members in feasible], picks)
            for k, (members, eps, oracle) in enumerate(zip(feasible, epsilons, oracles)):
                assert picked[k] == _epsilon_greedy(q, np.array(members), eps, oracle)
    for draws, oracle in zip(stack.draws, oracles):
        assert [draws.integers(1000) for _ in range(64)] == [oracle.integers(1000) for _ in range(64)]


def test_default_run_decides_greedily_once_per_forward(monkeypatch):
    calls = {"forward": 0, "greedy": 0, "push": 0}

    def counted(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in ("forward", "greedy"):
        monkeypatch.setattr(AgentStack, name, counted(name, getattr(AgentStack, name)))
    monkeypatch.setattr(ReplayMemory, "push", counted("push", ReplayMemory.push))
    cfg = ScenarioConfig(tti_count=200, runs=1)
    run = ScenarioRun(cfg, run_seed=derive_seed(cfg.master_seed, 0))
    run.run()
    # the work of one default cell; a faster scheduling stage does the same.
    # The memo hits (most of the 200 * 24 RBG steps after the first of a
    # geometry) neither step the network nor decide greedily again
    assert calls == {"forward": 3266, "greedy": 3266, "push": 540}
    assert run.geometry.memo.size == 164


def _node_bytes(n_beams, hidden):
    """The bytes a rollout memo counts for one node: its carry, h and c, each
    (n_beams, H) float64, and the rest at NODE_BYTES and BEAM_BYTES per beam."""
    return NODE_BYTES + n_beams * BEAM_BYTES + 2 * n_beams * hidden * 8


def test_memo_past_a_small_cap_equals_the_mirror(monkeypatch):
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
    # room for 3 nodes and most of a fourth
    monkeypatch.setattr(agent_module, "ROLLOUT_MEMO_BYTES", 4 * _node_bytes(cfg.n_beams, cfg.hidden_units) - 1)
    run, mirror = run_pair(cfg)
    step_and_compare(run, mirror)
    assert run.geometry.memo.size == run.geometry.memo.cap == 3


def _memo(n_beams, hidden):
    """A rollout memo of `n_beams` agents whose one feasible action, 999, is an
    int Python does not cache, so each node's greedy list holds its own."""
    agents = [
        DqnAgent(AgentConfig(action_count=1000, hidden_units=hidden, seed=k))
        for k in range(n_beams)
    ]
    mask = np.zeros((n_beams, 1000), dtype=bool)
    mask[:, 999] = True
    return RolloutMemo(AgentStack(agents), mask, [{999: 0.5}] * n_beams)


def test_memo_cap_is_the_byte_budget_over_a_node():
    # 4,096 nodes at 8 beams and 20 hidden units, more at the default shape and
    # at 1 beam and 1 hidden unit, 58 (15 MiB) at 64 beams and 256 hidden units
    for n_beams, hidden, cap in ((8, 20, 4096), (3, 20, 8192), (1, 1, 18547), (64, 256, 58)):
        memo = _memo(n_beams, hidden)
        assert memo.cap == cap
        assert memo.cap * _node_bytes(n_beams, hidden) <= ROLLOUT_MEMO_BYTES


def test_memo_bytes_stay_within_the_budget():
    # tracemalloc's count of what a memo holds after `nodes` misses along one
    # path, each with a new key: filled to its cap at 1 beam and 1 hidden unit,
    # where a node's overhead outweighs its carry most, and in part elsewhere
    for n_beams, hidden, nodes in ((1, 1, None), (8, 20, 1000), (64, 8, 200)):
        memo = _memo(n_beams, hidden)
        assert memo.cap * _node_bytes(n_beams, hidden) <= ROLLOUT_MEMO_BYTES
        nodes = memo.cap if nodes is None else nodes
        node = memo.root
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(1, nodes + 1):
                node = memo.expand(node, ((i - 1) / nodes,) * n_beams)
                if i % 1000 == 0 or i == nodes:  # stop early if nodes run over
                    held = tracemalloc.get_traced_memory()[0] - before
                    assert held <= i * _node_bytes(n_beams, hidden)
        finally:
            tracemalloc.stop()
        assert memo.size == nodes


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
