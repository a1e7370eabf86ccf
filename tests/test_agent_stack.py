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
from reference import decide


def _assert_views_of(net, wx, wh, b, wq, bq):
    for key, arr in net.params.items():
        base = {"wx": wx, "wh": wh, "b": b, "wq": wq, "bq": bq}[key.split("_")[0]]
        assert np.shares_memory(arr, base), key


class TestFusedStorage:
    def test_init_draws_gates_in_key_order(self):
        net = LstmNetwork(2, 3, 4, seed=11)
        rng = make_rng(11)
        for gate in ("i", "f", "o", "g"):
            assert np.array_equal(net.params[f"wx_{gate}"], rng.uniform(-0.1, 0.1, size=(2, 3)))
            assert np.array_equal(net.params[f"wh_{gate}"], rng.uniform(-0.1, 0.1, size=(3, 3)))
            assert np.array_equal(net.params[f"b_{gate}"], rng.uniform(-0.1, 0.1, size=(3,)))
        assert np.array_equal(net.params["wq"], rng.uniform(-0.1, 0.1, size=(3, 4)))
        assert np.array_equal(net.params["bq"], rng.uniform(-0.1, 0.1, size=(4,)))

    def test_gate_views_write_through(self):
        net = LstmNetwork(1, 3, 2, seed=1)
        _assert_views_of(net, *net.arrays())
        net.params["wh_o"][:] = 7.0
        assert np.all(net.wh[:, 6:9] == 7.0)
        assert not np.any(net.wh[:, :6] == 7.0)
        net.b[3:6] = -1.0
        assert np.all(net.params["b_f"] == -1.0)

    def test_clone_is_independent(self):
        net = LstmNetwork(1, 3, 2, seed=1)
        other = net.clone()
        _assert_views_of(other, *other.arrays())
        other.params["wx_i"][:] = 5.0
        assert not np.any(net.params["wx_i"] == 5.0)


def test_stack_rebinds_agents_to_its_slices():
    agents = [DqnAgent(AgentConfig(action_count=4, hidden_units=6, seed=s)) for s in range(3)]
    before = [[a.copy() for a in agent.main.arrays()] for agent in agents]
    stack = AgentStack(agents)
    for k, agent in enumerate(agents):
        _assert_views_of(agent.main, stack.wx, stack.wh, stack.b, stack.wq, stack.bq)
        for old, new in zip(before[k], agent.main.arrays()):
            assert np.array_equal(old, new)
    agents[1].main.params["b_g"][:] = 3.0
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
    # one engine-shaped episode: per TTI the carry restarts, every agent
    # picks once per RBG under its mask, the next state comes from a CQI
    # table indexed by the action, and each agent trains between TTIs
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

    cqis = [0] * n
    for _ in range(ttis):
        ref_carry = [agent.main.zero_carry() for agent in reference]
        carry = stack.zero_carry()
        for _ in range(rbgs):
            states = [encode_state(c) for c in cqis]
            q, new_carry = stack.forward(np.asarray(states, dtype=float).reshape(n, 1), carry)
            picked = decide(stack, q, mask)
            for k, agent in enumerate(reference):
                q_ref, _ = lstm_forward(agent.main, [states[k]], ref_carry[k])
                a_ref, ref_next = select_action(
                    agent.main, states[k], ref_carry[k], epsilon, agent.action_rng, masks[k]
                )
                assert picked[k] == a_ref
                assert np.array_equal(q[k], q_ref[0])
                assert np.array_equal(new_carry[0][k], ref_next[0])
                assert np.array_equal(new_carry[1][k], ref_next[1])
                cqi_next = cqi_tables[k][a_ref]
                for owner, hidden_context in (
                    (agent, ref_carry[k]),
                    (agents[k], (carry[0][k], carry[1][k])),
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

    for agent, mine in zip(reference, agents):
        assert agent.action_rng.bit_generator.state == mine.action_rng.bit_generator.state
        for key in agent.main.params:
            assert np.array_equal(agent.main.params[key], mine.main.params[key])
