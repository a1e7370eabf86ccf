"""The scheduling stage's decision split: `AgentStack.greedy`, computed once
per row of a window's stacked step, and `AgentStack.explorations`, drawn once
per window for all its TTIs and RBGs, against `decide` and `_epsilon_greedy`;
every path of a `Window` against a walk of its TTI; its plan against its
chain stepped with the path lookups; the window's work and row bound; and
the per-TTI mean delay, an int sum over its count, against `np.mean`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_schedule_stage import run_pair, step_and_compare

from mmwavesim import window as window_module
from mmwavesim.agent import (
    AgentConfig,
    AgentStack,
    DqnAgent,
    DrawSource,
    ReplayMemory,
    _epsilon_greedy,
)
from mmwavesim.engine import ScenarioConfig, ScenarioRun, _Geometry, _Link
from mmwavesim.seeding import derive_seed
from mmwavesim.window import WINDOW_ROWS, Window
import reference
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
                greedy = reference.greedy(split, q, mask)
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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_call_for_many_ttis_draws_what_a_call_per_tti_draws(data):
    # a window draws the explorations of its TTIs with one call: the same picks,
    # RBG by RBG, as a call per TTI, and every DrawSource left at the same
    # place; raw streams half full of values at an exploration bound, or
    # the agents' own generators, and calls that cross block refills
    n = data.draw(st.integers(1, 4), label="agents")
    epsilons = [data.draw(st.sampled_from(EXPLORATION_EPSILONS)) for _ in range(n)]
    feasible = [tuple(range(1, 1 + data.draw(st.integers(1, 5)))) for _ in range(n)]
    rbgs, ttis = data.draw(st.integers(1, 40), label="rbgs"), data.draw(st.integers(1, 8), label="ttis")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    whole = AgentStack(_agents(6, epsilons, seed))
    split = AgentStack(_agents(6, epsilons, seed))
    if data.draw(st.booleans(), label="raw stubs"):
        rng = np.random.default_rng(seed)
        raws = [
            [
                NEAR_BOUNDS[rng.integers(len(NEAR_BOUNDS))]
                if rng.random() < 0.5
                else int(rng.integers(2**64, dtype=np.uint64))
                for _ in range(2 * rbgs * ttis)
            ]
            for _ in range(n)
        ]
        for stack in (whole, split):
            stack.draws = [DrawSource(RawStub(r), eps) for r, eps in zip(raws, epsilons)]
    picks = whole.explorations(feasible, ttis * rbgs)
    assert picks == [p for _ in range(ttis) for p in split.explorations(feasible, rbgs)]
    for a, b in zip(whole.draws, split.draws):
        assert next_draws(a) == next_draws(b)


@st.composite
def windows(draw):
    """A stack's geometry, first states and window: next states from few CQIs,
    so members share them, first states that may be none of them, RBG bits
    with full mantissas, and half the time a UE that every beam shares; at 64
    hidden units (one stack in 8) a window of more than one TTI may fail the
    `CALL_ROWS` test."""
    n = draw(st.integers(1, 4))
    actions = draw(st.integers(1, 6))
    epsilon = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    mask = np.array([draw(mask_rows(actions)) for _ in range(n)])
    if draw(st.booleans(), label="shared"):
        mask[:, 0] = True
    cqi = st.integers(0, 3).map(lambda c: c / 15.0)
    bits = st.floats(0.0, 1e6) | st.sampled_from([0.1, 1 / 3, 2.0**-30])
    links = [
        {a: _Link(draw(bits), draw(cqi), 1.0) for a in np.flatnonzero(row).tolist()} for row in mask
    ]
    geo = _Geometry([], 0.0, mask, links)
    first_states = tuple(draw(cqi | st.just(0.4)) for _ in range(n))
    return (
        n,
        actions,
        draw(st.integers(1, 8).map(lambda h: 64 if h == 8 else h)),
        epsilon,
        geo,
        first_states,
        draw(st.integers(1, 5)),
        draw(st.integers(1, 6)),
        draw(st.integers(0, 2**32 - 1)),
    )


def _stack(n, actions, hidden, epsilon, seed):
    return AgentStack(
        [
            DqnAgent(AgentConfig(action_count=actions, hidden_units=hidden, epsilon=epsilon, seed=seed + k))
            for k in range(n)
        ]
    )


@settings(max_examples=150, deadline=None)
@given(case=windows())
def test_every_path_equals_a_walk_of_its_tti(case):
    # each path (TTI, first states) of a window, looked up in its rollouts,
    # against the TTI stepped RBG by RBG with `forward`, `greedy` and a call
    # of `explorations` per TTI: the same actions, the same carries, and the
    # draws left at the same place
    n, actions, hidden, epsilon, geo, first_states, ttis, rbgs, seed = case
    stack, ref = _stack(n, actions, hidden, epsilon, seed), _stack(n, actions, hidden, epsilon, seed)
    mask, feasible = geo.mask, [tuple(table) for table in geo.links]
    next_states = [{a: link.next_state for a, link in table.items()} for table in geo.links]
    window = Window(stack, geo, first_states, ttis, rbgs, carried_from=0)
    assert 1 <= window.ttis <= ttis
    starts = [sorted(set(states.values())) for states in next_states]
    for w in range(window.ttis):
        picks = ref.explorations(feasible, rbgs)
        tried = [first_states] if w == 0 else [
            tuple(s[i % len(s)] for s in starts) for i in range(max(map(len, starts)))
        ]
        for start in tried:
            walked, carries, states = [], [], start
            h = c = np.zeros((n, 1, hidden))  # one row per agent
            for explored in picks:
                carries.append((h[:, 0], c[:, 0]))
                q, (h, c) = ref.forward(np.array(states)[:, None, None], (h, c))
                walked.append(with_picks(reference.greedy(ref, q[:, 0], mask), explored))
                states = tuple(ns[a] for ns, a in zip(next_states, walked[-1]))
            paths = reference.window_paths(window, w, start)
            assert [list(p) for p in paths] == [list(a) for a in zip(*walked)]
            got = reference.window_carries(window, w, start)
            for (h, c), (h_ref, c_ref) in zip(got, carries, strict=True):
                assert np.array_equal(h, h_ref) and np.array_equal(c, c_ref)
    for a, b in zip(stack.draws, ref.draws):
        assert next_draws(a) == next_draws(b)


@settings(max_examples=150, deadline=None)
@given(
    case=windows(),
    bound=st.sampled_from([WINDOW_ROWS, 12, 6]),
    carried_from=st.sampled_from([None, 0, 1, 2, 4]),
)
def test_the_plan_equals_its_chain_stepped_with_the_lookups(case, bound, carried_from):
    # TTI by TTI from the window's first states, each entry of its plan
    # against the lookups of the path from the last TTI's first states: its
    # rows, its budgets summed one UE at a time, the next first states and,
    # at the TTIs from carried_from on, its carries; windows whose TTIs the
    # row bound cuts, windows of one TTI and beams that share a UE
    n, actions, hidden, epsilon, geo, first_states, ttis, rbgs, seed = case
    stack = _stack(n, actions, hidden, epsilon, seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(window_module, "WINDOW_ROWS", bound)
        window = Window(stack, geo, first_states, ttis, rbgs, carried_from)
    assert len(window.plan) == window.ttis
    states = first_states
    for w, tti in enumerate(window.plan):
        paths = reference.window_paths(window, w, states)
        rows = list(zip(*paths))
        assert tti.rows == rows
        assert tti.budgets == reference.budgets(rows, geo.links)
        if carried_from is None or w < carried_from:
            assert tti.carries is None
        else:
            want = reference.window_carries(window, w, states)
            for (h, c), (h_ref, c_ref) in zip(tti.carries, want, strict=True):
                assert np.array_equal(h, h_ref) and np.array_equal(c, c_ref)
        states = tuple(table[p[-1]].next_state for table, p in zip(geo.links, paths))
        assert tti.first_states == states


def _counted(monkeypatch):
    """Counts of `AgentStack.forward` calls and their Q-rows, `greedy` calls and
    replay pushes; `rows` also keeps each call's (agents, rows) pair."""
    counts = {"forward": 0, "rows": 0, "greedy": 0, "push": 0}
    calls = []
    forward, greedy, push = AgentStack.forward, AgentStack.greedy, ReplayMemory.push

    def counted_forward(self, x, carry):
        counts["forward"] += 1
        counts["rows"] += x.size
        calls.append((len(x), x.size))
        return forward(self, x, carry)

    def counted_greedy(self, q, mask):
        counts["greedy"] += 1
        return greedy(self, q, mask)

    def counted_push(self, exp):
        counts["push"] += 1
        return push(self, exp)

    monkeypatch.setattr(AgentStack, "forward", counted_forward)
    monkeypatch.setattr(AgentStack, "greedy", counted_greedy)
    monkeypatch.setattr(ReplayMemory, "push", counted_push)
    return counts, calls


def test_default_run_work(monkeypatch):
    counts, _ = _counted(monkeypatch)
    resolved = {"paths": 0, "budgets": 0, "in a step": 0}
    building = []
    init, paths, walk = Window.__init__, Window._paths, Window._walk
    budgets = window_module._budgets

    def building_init(self, *args):
        building.append(self)
        init(self, *args)
        building.pop()

    def counted(name, fn):
        def resolve(*args):
            resolved[name if building else "in a step"] += 1
            return fn(*args)

        return resolve

    monkeypatch.setattr(Window, "__init__", building_init)
    # a window of one TTI resolves its one TTI's paths as it walks them
    monkeypatch.setattr(Window, "_paths", counted("paths", paths))
    monkeypatch.setattr(Window, "_walk", counted("paths", walk))
    monkeypatch.setattr(window_module, "_budgets", counted("budgets", budgets))
    cfg = ScenarioConfig(tti_count=200, runs=1)
    ScenarioRun(cfg, run_seed=derive_seed(cfg.master_seed, 0)).run()
    # the work of one default cell; a faster scheduling stage does the same.
    # A window steps all its TTIs with one stacked forward and greedy per RBG
    assert counts == {"forward": 552, "rows": 21237, "greedy": 552, "push": 540}
    # and resolves each TTI's paths and budgets once, while it is built
    assert resolved == {"paths": 200, "budgets": 200, "in a step": 0}


@st.composite
def bounded_runs(draw):
    n_ues = draw(st.integers(1, 12))
    return ScenarioConfig(
        n_ues=n_ues,
        n_clusters=draw(st.integers(1, n_ues)),
        n_beams=draw(st.integers(1, 8)),
        beam_width_deg=draw(st.sampled_from([20.0, 90.0])),
        hidden_units=draw(st.integers(1, 24)),
        epsilon=draw(st.sampled_from([0.1, 1.0])),
        rbg_count=draw(st.integers(1, 5)),
        move_interval_ttis=draw(st.integers(2, 30)),
        train_interval_ttis=draw(st.integers(1, 30)),
        tti_count=30,
        runs=1,
        master_seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=40, deadline=None)
@given(cfg=bounded_runs(), bound=st.sampled_from([WINDOW_ROWS, 8, 2]))
def test_no_call_holds_more_rows_than_the_bound(cfg, bound):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(window_module, "WINDOW_ROWS", bound)
        _, calls = _counted(monkeypatch)
        ScenarioRun(cfg, run_seed=derive_seed(cfg.master_seed, 0)).run()
    # a window of one TTI holds a row per agent, more than the bound at 2
    assert calls and all(rows <= max(agents, bound) for agents, rows in calls)


def test_windows_cut_by_the_row_bound_equal_the_mirror(monkeypatch):
    cfg = ScenarioConfig(
        n_ues=5,
        n_clusters=2,
        n_beams=3,
        rbg_count=5,
        hidden_units=4,
        epsilon=0.3,
        load_bps=4e6,
        tti_count=40,
        move_interval_ttis=17,
        train_interval_ttis=19,
        replay_capacity=12,
        minibatch=4,
        runs=1,
    )
    monkeypatch.setattr(window_module, "WINDOW_ROWS", 9)
    cut = []
    init = Window.__init__

    def recorded(self, stack, geo, first_states, ttis, *rest):
        init(self, stack, geo, first_states, ttis, *rest)
        cut.append(1 < self.ttis < ttis)

    monkeypatch.setattr(Window, "__init__", recorded)
    run, mirror = run_pair(cfg)
    step_and_compare(run, mirror)
    assert any(cut)


@settings(max_examples=300, deadline=None)
@given(delays=st.lists(st.integers(0, 10**6), min_size=1, max_size=500))
def test_int_mean_delay_equals_numpy(delays):
    assert sum(delays) / len(delays) == float(np.mean(delays))


class DelayLog(ScenarioRun):
    """Keeps every TTI's delivered packet delays: the arrival TTIs that
    serving takes from the front of each queue."""

    def _serve(self, t, budgets):
        queued = [list(q._arrival_ttis) for q in self.queues]
        served = super()._serve(t, budgets)
        self.delays.append(
            [t - a for q, was in zip(self.queues, queued) for a in was[: len(was) - len(q)]]
        )
        return served


def test_every_record_mean_delay_equals_numpy():
    cfg = ScenarioConfig(tti_count=300, load_bps=4e6, runs=1)
    run = DelayLog(cfg, run_seed=derive_seed(cfg.master_seed, 0))
    run.delays = []
    (_, _, mean_delays), _ = run.run()
    assert sum(map(bool, run.delays)) > cfg.tti_count // 2
    for mean_delay, delays in zip(mean_delays, run.delays, strict=True):
        want = float(np.mean(delays)) if delays else math.nan
        assert repr(mean_delay) == repr(want)
