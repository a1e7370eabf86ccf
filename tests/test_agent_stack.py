"""The beam-stacked DQN step against the per-agent reference path."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim.agent import (
    AgentConfig,
    AgentStack,
    DqnAgent,
    ExperienceTuple,
    LstmNetwork,
    encode_state,
    lstm_forward,
    select_action,
)
from mmwavesim.seeding import derive_seed, make_rng
from reference import next_draws, with_picks


def _assert_views_of(net, *bases):
    for k, (arr, base) in enumerate(zip(net.arrays(), bases, strict=True)):
        assert np.shares_memory(arr, base), k


class TestFusedStorage:
    def test_init_draws_gates_in_key_order(self):
        net = LstmNetwork(3, 4, seed=11)
        rng = make_rng(11)
        for k in range(4):  # the gates i, f, o, g in turn
            cols = slice(3 * k, 3 * (k + 1))
            assert np.array_equal(net.wx[cols], rng.uniform(-0.1, 0.1, size=(3,)))
            assert np.array_equal(net.wh[:, cols], rng.uniform(-0.1, 0.1, size=(3, 3)))
            assert np.array_equal(net.b[cols], rng.uniform(-0.1, 0.1, size=(3,)))
        assert np.array_equal(net.wq, rng.uniform(-0.1, 0.1, size=(3, 4)))
        assert np.array_equal(net.bq, rng.uniform(-0.1, 0.1, size=(4,)))

    def test_clone_is_independent(self):
        net = LstmNetwork(3, 2, seed=1)
        other = net.clone()
        for mine, theirs in zip(net.arrays(), other.arrays()):
            assert np.array_equal(mine, theirs) and not np.shares_memory(mine, theirs)
        other.wx[:3] = 5.0
        assert not np.any(net.wx == 5.0)


def test_stack_rebinds_agents_to_its_slices():
    agents = [DqnAgent(AgentConfig(action_count=4, hidden_units=6, seed=s)) for s in range(3)]
    before = [[a.copy() for a in agent.main.arrays()] for agent in agents]
    stack = AgentStack(agents)
    for k, agent in enumerate(agents):
        _assert_views_of(agent.main, stack.wx, stack.wh, stack.b, stack.wq, stack.bq)
        for old, new in zip(before[k], agent.main.arrays()):
            assert np.array_equal(old, new)
    agents[1].main.b[18:24] = 3.0
    assert np.all(stack.b[1, 18:24] == 3.0)
    assert not np.any(stack.b[0] == 3.0)


def _config(actions, hidden, epsilon, seed):
    return AgentConfig(
        action_count=actions,
        hidden_units=hidden,
        epsilon=epsilon,
        minibatch=2,
        replay_capacity=8,
        seed=seed,
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_step_matches_select_action(data):
    # one engine-shaped episode: per TTI the carry restarts, the exploration
    # of all its RBGs is drawn at once, every agent picks once per RBG under
    # its mask, the next state comes from a CQI table indexed by the action,
    # and each agent trains between TTIs
    n = data.draw(st.integers(1, 4), label="agents")
    hidden = data.draw(st.integers(1, 24), label="hidden")
    actions = data.draw(st.integers(1, 8), label="ues")
    epsilon = data.draw(st.sampled_from([0.0, 0.1, 1.0]), label="epsilon")
    rbgs = data.draw(st.integers(1, 6), label="rbgs")
    ttis = data.draw(st.integers(1, 3), label="ttis")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    row = st.lists(st.booleans(), min_size=actions, max_size=actions).filter(any)
    masks = [data.draw(row, label="mask") for _ in range(n)]
    cqi_row = st.lists(st.integers(0, 15), min_size=actions, max_size=actions)
    cqi_tables = [data.draw(cqi_row, label="cqi") for _ in range(n)]

    reference = [DqnAgent(_config(actions, hidden, epsilon, derive_seed(seed, k))) for k in range(n)]
    agents = [DqnAgent(_config(actions, hidden, epsilon, derive_seed(seed, k))) for k in range(n)]
    stack = AgentStack(agents)
    mask = np.array(masks, dtype=bool)
    feasible = [tuple(np.flatnonzero(row).tolist()) for row in masks]

    cqis = [0] * n
    for _ in range(ttis):
        ref_carry = [(np.zeros(hidden), np.zeros(hidden)) for _ in reference]
        carry = (np.zeros((n, 1, hidden)),) * 2  # one row per agent
        for picks in stack.explorations(feasible, rbgs):
            states = [encode_state(c) for c in cqis]
            q, new_carry = stack.forward(np.asarray(states, dtype=float).reshape(n, 1, 1), carry)
            picked = with_picks([a for a, in stack.greedy(q, mask)], picks)
            for k, agent in enumerate(reference):
                q_ref, _ = lstm_forward(agent.main, [states[k]], ref_carry[k])
                a_ref, ref_next = select_action(
                    agent.main, states[k], ref_carry[k], epsilon, agent.action_rng, masks[k]
                )
                assert picked[k] == a_ref
                assert np.array_equal(q[k, 0], q_ref[0])
                assert np.array_equal(new_carry[0][k, 0], ref_next[0])
                assert np.array_equal(new_carry[1][k, 0], ref_next[1])
                cqi_next = cqi_tables[k][a_ref]
                for owner, hidden_context in (
                    (agent, ref_carry[k]),
                    (agents[k], (carry[0][k, 0], carry[1][k, 0])),
                ):
                    owner.remember(
                        ExperienceTuple(
                            state=states[k],
                            action=a_ref,
                            next_state=encode_state(cqi_next),
                            reward=cqi_next / 15.0,
                            hidden_context=hidden_context,
                            action_mask=tuple(masks[k]),
                        )
                    )
                ref_carry[k] = ref_next
                cqis[k] = cqi_next
            carry = new_carry
        for agent, mine in zip(reference, agents):
            assert agent.train() == mine.train()

    for agent, draws, mine in zip(reference, stack.draws, agents):
        assert next_draws(agent.action_rng) == next_draws(draws)
        for theirs, ours in zip(agent.main.arrays(), mine.main.arrays()):
            assert np.array_equal(theirs, ours)
