"""The scheduling stage: window rollouts of the LSTM, the vectorized
decision and the replay pushes, against a stage that steps every RBG of
every TTI through the network and pushes every experience."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim.agent import (
    AgentConfig,
    AgentStack,
    DqnAgent,
    ExperienceTuple,
    ReplayMemory,
    _epsilon_greedy,
    reward,
    select_action,
)
from mmwavesim.clustering import InitStrategy
from mmwavesim.engine import Scenario, ScenarioConfig, ScenarioRun
from mmwavesim.seeding import derive_seed
from mmwavesim.window import _budgets
import reference
from reference import decide, next_draws


def reward_table(run, t, geo):
    """Per beam, {member id: the reward of scheduling an RBG to it} at TTI t,
    before the queues are served."""
    cfg = run.cfg
    rewards = []
    for table in geo.links:
        row = {}
        for uid, link in table.items():
            delay_ratio = cfg.qos_latency_ttis / run.queues[uid].head_of_line_delay(t)
            row[uid] = reward(run.classes[uid], link.sinr_ratio, delay_ratio)
        rewards.append(row)
    return rewards


class Recorded(ScenarioRun):
    """Keeps the scheduling stage's output of the last TTI: the per-UE bit
    budgets, the per-beam allocations (the per-RBG actions transposed) and
    the rewards of the allocated RBGs, beam by beam."""

    def _schedule(self, t, geo):
        rewards = reward_table(self, t, geo)
        budgets, actions = super()._schedule(t, geo)
        allocations = [list(alloc) for alloc in zip(*actions)]
        seen = [rewards[b][a] for b, alloc in enumerate(allocations) for a in alloc]
        self.scheduled = budgets, allocations, seen
        return budgets, actions


class Mirror(ScenarioRun):
    """The scheduling stage without windows or the push rule: one
    `AgentStack.forward` and `decide` per RBG from a zero carry, every
    experience pushed, its mask built from the beam's members."""

    def _schedule(self, t, geo):
        cfg = self.cfg
        rewards = reward_table(self, t, geo)
        masks = [tuple(uid in beam.members for uid in range(cfg.n_ues)) for beam in geo.beams]
        states, carry = list(self.first_states), self.stack.zero_carry()
        steps = []
        for _ in range(cfg.rbg_count):
            x = np.asarray(states, dtype=float).reshape(len(self.agents), 1)
            q, next_carry = self.stack.forward(x, carry)
            actions = decide(self.stack, q, geo.mask)
            steps.append((actions, carry))
            states = [geo.links[b][a].next_state for b, a in enumerate(actions)]
            carry = next_carry
        budgets = {}
        for b, agent in enumerate(self.agents):
            state = self.first_states[b]
            for actions, (h, c) in steps:
                action = actions[b]
                link, r = geo.links[b][action], rewards[b][action]
                budgets[action] = budgets.get(action, 0.0) + link.bits
                agent.remember(
                    ExperienceTuple(state, action, link.next_state, r, (h[b], c[b]), masks[b])
                )
                state = link.next_state
        self.first_states = tuple(states)
        return budgets, [actions for actions, _ in steps]


class RecordedMirror(Recorded, Mirror):
    """The mirror, keeping its scheduling output as `Recorded` does."""


class ReplayWatch:
    """Logs every replay sample of a run's agents; with `reachable`, also
    asserts that each pushed experience is still in the replay when the
    next sample is drawn (so no push is wasted)."""

    def __init__(self, run, reachable=False):
        self.samples = []
        self.pending = [[] for _ in run.agents]
        for k, agent in enumerate(run.agents):
            replay = agent.replay
            replay.sample = self._sample(k, replay, replay.sample, reachable)
            if reachable:
                replay.push = self._push(k, replay.push)

    def _push(self, k, push):
        def logged(exp):
            self.pending[k].append(exp)
            push(exp)

        return logged

    def _sample(self, k, replay, sample, reachable):
        def logged(size, rng):
            if reachable:
                held = {id(e) for e in replay._buf}
                assert all(id(e) in held for e in self.pending[k])
                self.pending[k].clear()
            batch = sample(size, rng)
            self.samples.append((k, batch))
            return batch

        return logged


def same_experience(a, b):
    return (
        (a.state, a.action, a.next_state, a.reward) == (b.state, b.action, b.next_state, b.reward)
        and np.array_equal(a.action_mask, b.action_mask)
        and all(np.array_equal(x, y) for x, y in zip(a.hidden_context, b.hidden_context))
    )


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for (k, batch), (k_ref, ref) in zip(got, want):
        assert k == k_ref
        assert (batch is None) == (ref is None)
        if batch is not None:
            assert len(batch) == len(ref)
            assert all(same_experience(a, b) for a, b in zip(batch, ref))


def assert_same_weights(run, mirror):
    for mine, ref in zip(run.agents, mirror.agents):
        for net, net_ref in ((mine.main, ref.main), (mine.target, ref.target)):
            for a, b in zip(net.arrays(), net_ref.arrays()):
                assert np.array_equal(a, b)


def record(run, t):
    coverage, delivered_bits, mean_delay = run.step(t)
    fields = (coverage, delivered_bits, repr(mean_delay))
    return fields, run.scheduled, run.geometry.links


def run_pair(cfg, trace=None):
    seed = derive_seed(cfg.master_seed, 0)
    return Recorded(cfg, seed, trace), RecordedMirror(cfg, seed, trace)


def step_and_compare(run, mirror):
    watch = ReplayWatch(run, reachable=True)
    watch_ref = ReplayWatch(mirror)
    for t in range(run.cfg.tti_count):
        assert record(run, t) == record(mirror, t)
        assert_same_samples(watch.samples, watch_ref.samples)
        assert_same_weights(run, mirror)
    # every push was followed by a sample that could read it
    assert not any(watch.pending)


@st.composite
def configs(draw):
    """A small config and, half the time, a position trace: windows cut by
    movement events, by training TTIs at intervals that need not divide the
    run, by clustering that stops before it settles and by the end of the
    run, over beams with one member and repeat beams."""
    n_ues = draw(st.integers(1, 6))
    tti_count = draw(st.integers(1, 40))
    capacity = draw(st.integers(1, 12))
    cfg = ScenarioConfig(
        scenario=draw(st.sampled_from(list(Scenario))),
        n_ues=n_ues,
        n_clusters=draw(st.integers(1, n_ues)),
        n_beams=draw(st.integers(1, 6)),  # above n_clusters: split and repeat beams
        beam_width_deg=draw(st.sampled_from([20.0, 90.0])),
        hidden_units=draw(st.integers(1, 24)),
        epsilon=draw(st.sampled_from([0.0, 0.1, 1.0])),
        rbg_count=draw(st.integers(1, 5)),
        replay_capacity=capacity,
        minibatch=draw(st.integers(1, capacity)),
        train_interval_ttis=draw(st.integers(1, 13)),
        target_copy_interval_ttis=draw(st.integers(1, 6)),
        # moves every few TTIs, or never
        move_interval_ttis=draw(st.sampled_from([2, 3, 7, 11, tti_count + 1])),
        # one or two rounds may stop before clustering settles
        cluster_max_iterations=draw(st.sampled_from([1, 2, 100])),
        cluster_init=draw(st.sampled_from(list(InitStrategy))),
        load_bps=draw(st.sampled_from([0.0, 4e6])),
        tti_count=tti_count,
        runs=1,
        master_seed=draw(st.integers(0, 2**32)),
    )
    if draw(st.booleans()):
        return cfg, None
    point = st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0))
    trace = {}
    for t in sorted(draw(st.lists(st.integers(0, tti_count - 1), unique=True, max_size=6))):
        ues = sorted(draw(st.lists(st.integers(0, n_ues - 1), min_size=1, unique=True)))
        trace[t] = [(u, draw(point.filter(lambda p: math.hypot(*p) >= 1e-3))) for u in ues]
    return cfg, trace


class TestEqualsEveryRbgForward:
    @settings(max_examples=150, deadline=None)
    @given(case=configs())
    def test_details_samples_and_weights(self, case):
        step_and_compare(*run_pair(*case))

    def test_repeated_rollouts_skip_the_network(self, monkeypatch):
        cfg = ScenarioConfig(
            n_ues=4,
            n_clusters=2,
            n_beams=2,
            rbg_count=6,
            hidden_units=6,
            epsilon=0.0,
            tti_count=40,
            move_interval_ttis=100,
            train_interval_ttis=100,
            runs=1,
        )
        run = ScenarioRun(cfg, run_seed=derive_seed(cfg.master_seed, 0))
        calls = []
        forward = run.stack.forward
        monkeypatch.setattr(run.stack, "forward", lambda *a: calls.append(1) or forward(*a))
        for t in range(cfg.tti_count):
            run.step(t)
        # greedy in a geometry fixed from TTI 1 on: a window rolls out many
        # TTIs at once, so of 40 TTIs only a few run the network
        assert len(calls) <= 4 * cfg.rbg_count


def test_default_run_pushes_what_a_sample_can_read(monkeypatch):
    pushes = []
    push = ReplayMemory.push
    monkeypatch.setattr(ReplayMemory, "push", lambda self, exp: pushes.append(1) or push(self, exp))
    cfg = ScenarioConfig(tti_count=200, runs=1)
    ScenarioRun(cfg, run_seed=derive_seed(cfg.master_seed, 0)).run()
    # per agent and train TTI (60, 120, 180), the 60 experiences its
    # sample can read: half of TTI T - 2 and all of T - 1 and T
    assert len(pushes) == cfg.n_beams * 3 * 60


@st.composite
def allocations(draw):
    """Per RBG, every beam's action over tables of RBG bits; beams may share
    a UE, as a repeat beam does, and bits have full mantissas so that the
    order of the adds shows in the sums."""
    n_ues = draw(st.integers(1, 5))
    links = []
    for _ in range(draw(st.integers(1, 6))):
        members = draw(st.lists(st.integers(0, n_ues - 1), min_size=1, unique=True))
        bits = st.floats(0.0, 1e6) | st.sampled_from([0.1, 1 / 3, 2.0**-30])
        links.append({uid: SimpleNamespace(bits=draw(bits)) for uid in members})
    rbg = st.tuples(*(st.sampled_from(sorted(table)) for table in links))
    return draw(st.lists(rbg, min_size=1, max_size=40)), links


@settings(max_examples=300, deadline=None)
@given(case=allocations())
def test_budgets_equal_the_rbg_by_rbg_sum(case):
    rows, links = case
    bits = [{uid: link.bits for uid, link in table.items()} for table in links]
    assert _budgets([list(path) for path in zip(*rows)], bits) == reference.budgets(rows, links)


def test_budgets_of_a_run_with_repeat_beams():
    # 5 beams over 3 UEs: the repeat beams serve UEs that another beam serves
    cfg = ScenarioConfig(n_ues=3, n_clusters=2, n_beams=5, epsilon=0.3, tti_count=30, runs=1)
    run = Recorded(cfg, run_seed=derive_seed(cfg.master_seed, 0))
    shared = 0
    for t in range(cfg.tti_count):
        run.step(t)
        budgets, per_beam, _ = run.scheduled
        rows = list(zip(*per_beam))
        assert budgets == reference.budgets(rows, run.geometry.links)
        owners = [uid for beam in run.geometry.beams for uid in set(beam.members)]
        shared += len(owners) > len(set(owners))
    assert shared == cfg.tti_count


# Q entries that exercise ties, NaN and the infinities
Q_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]) | st.floats(
    -2.0, 2.0
)


@st.composite
def decisions(draw):
    n = draw(st.integers(1, 4))
    actions = draw(st.integers(1, 8))
    rows = st.lists(Q_ENTRIES, min_size=actions, max_size=actions)
    mask_row = st.lists(st.booleans(), min_size=actions, max_size=actions).filter(any)
    epsilons = [draw(st.sampled_from([0.0, 0.1, 1.0])) for _ in range(n)]
    rounds = [
        (np.array([draw(rows) for _ in range(n)]), np.array([draw(mask_row) for _ in range(n)]))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return actions, epsilons, rounds, draw(st.integers(0, 2**32 - 1))


def _agents(actions, epsilons, seed):
    return [
        DqnAgent(AgentConfig(action_count=actions, hidden_units=3, epsilon=eps, seed=seed + k))
        for k, eps in enumerate(epsilons)
    ]


class TestDecide:
    @settings(max_examples=200, deadline=None)
    @given(case=decisions())
    def test_equals_epsilon_greedy_and_select_action(self, case):
        actions, epsilons, rounds, seed = case
        mine = _agents(actions, epsilons, seed)
        by_row = _agents(actions, epsilons, seed)
        by_select = _agents(actions, epsilons, seed)
        stack = AgentStack(mine)
        for q, mask in rounds:
            # with wq = 0 the network's Q-row is bq, so select_action sees q too
            for k, agent in enumerate(by_select):
                agent.main.params["wq"][:] = 0.0
                agent.main.params["bq"][:] = q[k]
            picked = decide(stack, q, mask)
            for k, eps in enumerate(epsilons):
                feasible = np.flatnonzero(mask[k])
                assert picked[k] == _epsilon_greedy(q[k], feasible, eps, by_row[k].action_rng)
                a, _ = select_action(
                    by_select[k].main, 0.5, None, eps, by_select[k].action_rng, mask[k]
                )
                assert picked[k] == a
                assert mask[k, picked[k]]
        for draws, a, b in zip(stack.draws, by_row, by_select):
            assert next_draws(draws) == next_draws(a.action_rng) == next_draws(b.action_rng)

    @pytest.mark.parametrize(
        "row, mask, want",
        [
            ([1.0, 3.0, 3.0, 0.0], [True] * 4, 1),  # ties: the lowest index
            ([9.0, -math.inf, -math.inf], [False, True, True], 1),  # all -inf: lowest feasible
            ([-math.inf, -math.inf, 2.0], [False, True, False], 1),
            ([math.nan, 1.0, math.nan, math.nan], [False, True, False, True], 3),  # first NaN
            ([math.inf, 0.0, math.inf], [False, True, True], 2),
        ],
    )
    def test_greedy_edge_rows(self, row, mask, want):
        agent = DqnAgent(AgentConfig(action_count=len(row), hidden_units=2, epsilon=0.0))
        stack = AgentStack([agent])
        assert decide(stack, np.array([row]), np.array([mask])) == [want]


@st.composite
def invariant_runs(draw):
    n_ues = draw(st.integers(1, 8))
    capacity = draw(st.integers(1, 30))
    cfg = ScenarioConfig(
        scenario=draw(st.sampled_from(list(Scenario))),
        n_ues=n_ues,
        n_clusters=draw(st.integers(1, n_ues)),
        n_beams=draw(st.integers(1, 7)),  # above and below n_clusters: split, merge, repeat
        beam_width_deg=draw(st.floats(1.0, 179.0)),
        cell_radius_m=draw(st.floats(1.0, 2000.0)),
        error_rmse_m=draw(st.floats(0.0, 50.0)),
        informative_pdf=draw(st.booleans()),
        move_interval_ttis=draw(st.integers(1, 6)),
        load_bps=draw(st.floats(0.0, 2e7)),
        rbg_count=draw(st.integers(1, 6)),
        hidden_units=draw(st.integers(1, 8)),
        epsilon=draw(st.sampled_from([0.0, 0.1, 1.0])),
        replay_capacity=capacity,
        minibatch=draw(st.integers(1, capacity)),
        train_interval_ttis=draw(st.integers(1, 5)),
        tti_count=12,
        runs=1,
        master_seed=draw(st.integers(0, 2**32)),
    )
    return Recorded(cfg, run_seed=derive_seed(cfg.master_seed, 0))


@settings(max_examples=80, deadline=None)
@given(run=invariant_runs())
def test_invariants(run):
    cfg = run.cfg
    packet_bits = 8 * cfg.packet_size_bytes
    pushed = []  # this TTI's experiences, as (beam, experience)
    for b, agent in enumerate(run.agents):
        push = agent.replay.push
        agent.replay.push = lambda exp, b=b, push=push: pushed.append((b, exp)) or push(exp)
    for t in range(cfg.tti_count):
        delivered = [q.delivered_packets for q in run.queues]
        _, delivered_bits, _ = run.step(t)
        budgets, allocations, _ = run.scheduled
        for beam, alloc in zip(run.geometry.beams, allocations):
            assert len(alloc) == cfg.rbg_count
            assert set(alloc) <= set(beam.members)
        # each UE is served whole packets, as many as its budget and queue allow
        served = [q.delivered_packets - n for q, n in zip(run.queues, delivered)]
        assert delivered_bits == sum(served) * packet_bits
        for uid, (q, n) in enumerate(zip(run.queues, served)):
            budget = budgets.get(uid, 0.0)
            assert n * packet_bits <= budget
            assert len(q) == 0 or budget - n * packet_bits < packet_bits
            assert q.arrivals_total == q.delivered_packets + len(q)
        for b, exp in pushed:
            members = sorted(set(run.geometry.beams[b].members))
            assert exp.action_mask[exp.action]
            assert np.flatnonzero(exp.action_mask).tolist() == members
            assert 0.5 <= exp.reward <= 1.0
        pushed.clear()
        links = [link for table in run.geometry.links for link in table.values()]
        assert all(math.isfinite(v) for link in links for v in link)
