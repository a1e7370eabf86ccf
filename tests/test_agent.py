import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmwavesim.agent import (
    AgentConfig,
    DqnAgent,
    ExperienceTuple,
    LstmNetwork,
    ReplayMemory,
    UserClass,
    _backward,
    _forward,
    encode_state,
    lstm_forward,
    reward,
    select_action,
    sync_target,
    train_step,
)
from mmwavesim.beams import sinr_to_cqi
from mmwavesim.errors import ConfigError
from mmwavesim.seeding import derive_seed, make_rng


# every action of a two-action agent is feasible
ALL = (True, True)


def zero_carry(agent):
    """The (h, c) of one sequence at its start, each of shape (H,)."""
    return tuple(np.zeros(agent.cfg.hidden_units) for _ in range(2))


def zero_net(h=4, a=2):
    net = LstmNetwork(h, a, seed=0)
    for w in net.arrays():
        w[...] = 0.0
    return net


class TestEncodeState:
    def test_endpoints_and_midrange(self):
        assert encode_state(0) == 0.0
        assert encode_state(15) == 1.0
        assert encode_state(6) == pytest.approx(0.4)

    @given(st.floats())
    def test_every_sinr_gives_a_cqi_and_state_in_range(self, sinr_db):
        # inf, -inf and nan included: the link's state needs no range check
        cqi = sinr_to_cqi(sinr_db)
        assert 0 <= cqi <= 15
        assert 0.0 <= encode_state(cqi) <= 1.0


class TestReward:
    def test_embb_unit_ratio(self):
        assert reward(UserClass.EMBB, 1.0, 1.0) == pytest.approx(1 / (1 + math.exp(-1)))

    def test_urllc_unit_ratios(self):
        assert reward(UserClass.URLLC, 1.0, 1.0) == pytest.approx(0.7310585786300049)

    def test_urllc_product_form(self):
        assert reward(UserClass.URLLC, 2.0, 0.5) == pytest.approx(
            reward(UserClass.URLLC, 1.0, 1.0)
        )

    def test_range_open_interval(self):
        # strictly inside (0, 1) wherever float64 can represent it at
        # all: sigm(x) rounds to 1.0 exactly once x exceeds ~36.7
        rng = make_rng(0)
        for _ in range(500):
            x = float(np.exp(rng.uniform(math.log(1e-4), math.log(30.0))))
            dr = float(np.exp(rng.uniform(math.log(1e-2), math.log(8.0))))
            r = reward(UserClass.URLLC, x / dr, dr)
            assert 0.0 < r < 1.0
            r2 = reward(UserClass.EMBB, x, dr)
            assert 0.0 < r2 < 1.0

    def test_saturation_stays_bounded(self):
        assert reward(UserClass.EMBB, 1e6, 8.0) <= 1.0
        assert reward(UserClass.URLLC, 1e6, 8.0) <= 1.0

    @given(
        st.sampled_from(UserClass),
        st.floats(-4000.0, 3000.0),
        st.integers(1, 10**6),
        st.integers(1, 10**9),
    )
    def test_in_half_to_one_over_accepted_ratios(self, cls, sinr_over_qos_db, latency, hol):
        # the engine's ratios: a linear SINR over the QoS requirement (0 once
        # the dB difference underflows, finite within the dB bounds), and
        # qos_latency_ttis over a head-of-line delay floored at 1 TTI
        sinr_ratio = 10.0 ** (sinr_over_qos_db / 10.0)
        assert 0.5 <= reward(cls, sinr_ratio, latency / hol) <= 1.0

    def test_embb_ignores_delay(self):
        assert reward(UserClass.EMBB, 1.5, 0.01) == reward(UserClass.EMBB, 1.5, 8.0)


class TestLstmForward:
    def test_all_zero_parameters_give_zero_q(self):
        net = zero_net()
        q, carry = lstm_forward(net, [1.0, 0.5, -0.3])
        assert np.all(q == 0.0)
        assert np.all(carry[0] == 0.0)

    def test_hand_computed_single_unit(self):
        # 1-unit cell, every parameter 0.5, input 1.0: each gate
        # pre-activation is 0.5*1 + 0.5*0 + 0.5 = 1
        net = LstmNetwork(1, 1, seed=0)
        for w in net.arrays():
            w[...] = 0.5
        q, _ = lstm_forward(net, [1.0])
        sig = 1.0 / (1.0 + math.exp(-1.0))
        g = math.tanh(1.0)
        c = sig * g
        h = sig * math.tanh(c)
        assert q[0, 0] == pytest.approx(0.5 * h + 0.5, abs=1e-15)

    def test_deterministic(self):
        net = LstmNetwork(5, 3, seed=9)
        q1, c1 = lstm_forward(net, [0.1, 0.9, 0.4])
        q2, c2 = lstm_forward(net, [0.1, 0.9, 0.4])
        assert np.array_equal(q1, q2)
        assert np.array_equal(c1[0], c2[0]) and np.array_equal(c1[1], c2[1])

    def test_carry_threads_sequence(self):
        # feeding a sequence step by step with the carry equals one call
        net = LstmNetwork(4, 2, seed=3)
        states = [0.2, 0.8, 0.5]
        q_all, _ = lstm_forward(net, states)
        carry = None
        stepwise = []
        for s in states:
            q, carry = lstm_forward(net, [s], carry)
            stepwise.append(q[0])
        assert np.allclose(q_all, np.array(stepwise), atol=1e-15)


class TestSelectAction:
    def test_greedy_is_argmax(self):
        net = zero_net(a=3)
        net.bq[:] = [0.1, 0.7, 0.3]
        a, _ = select_action(net, 0.5, None, 0.0, make_rng(0))
        assert a == 1

    def test_tie_breaks_lowest_index(self):
        net = zero_net(a=4)
        a, _ = select_action(net, 0.5, None, 0.0, make_rng(0))
        assert a == 0

    def test_full_exploration_uniform(self):
        net = zero_net(a=4)
        rng = make_rng(1)
        counts = np.zeros(4)
        n = 100_000
        for _ in range(n):
            a, _ = select_action(net, 0.5, None, 1.0, rng)
            counts[a] += 1
        assert np.all(np.abs(counts / n - 0.25) < 0.02 * 0.25 + 0.005)

    def test_mask_restricts_choices(self):
        net = zero_net(a=4)
        net.bq[:] = [9.0, 0.1, 0.5, 0.2]
        a, _ = select_action(net, 0.5, None, 0.0, make_rng(0), mask=[False, True, True, False])
        assert a == 2
        rng = make_rng(2)
        for _ in range(200):
            a, _ = select_action(net, 0.5, None, 1.0, rng, mask=[False, True, True, False])
            assert a in (1, 2)


class TestTrainStep:
    def test_td_arithmetic_fixture(self):
        # zero weights make Q equal the output bias, so the TD pieces
        # are exact: target 0.5 + 0.9 * 1.0, prediction 0.95
        cfg = AgentConfig(action_count=2, minibatch=1, gamma=0.9, nn_learning_rate=0.01)
        main, target = zero_net(), zero_net()
        main.bq[:] = [0.95, 0.0]
        target.bq[:] = [1.0, 0.5]
        exp = ExperienceTuple(0.3, 0, 0.7, 0.5, (np.zeros(4), np.zeros(4)), ALL)
        loss = train_step(main, target, [exp], cfg)
        assert loss == pytest.approx(0.45**2, abs=1e-12)

    def test_perfect_prediction_zero_gradient(self):
        cfg = AgentConfig(action_count=2, minibatch=1, gamma=0.0, nn_learning_rate=0.5)
        main, target = zero_net(), zero_net()
        main.bq[:] = [0.5, 0.5]
        before = [w.copy() for w in main.arrays()]
        exp = ExperienceTuple(0.3, 0, 0.7, 0.5, (np.zeros(4), np.zeros(4)), ALL)
        loss = train_step(main, target, [exp], cfg)
        assert loss == 0.0
        for w, old in zip(main.arrays(), before):
            assert np.array_equal(w, old)

    def test_target_untouched(self):
        cfg = AgentConfig(action_count=2, minibatch=1, nn_learning_rate=0.1)
        main = LstmNetwork(4, 2, seed=1)
        target = LstmNetwork(4, 2, seed=2)
        before = [w.copy() for w in target.arrays()]
        exp = ExperienceTuple(0.3, 1, 0.7, 0.8, (np.zeros(4), np.zeros(4)), ALL)
        train_step(main, target, [exp], cfg)
        for w, old in zip(target.arrays(), before):
            assert np.array_equal(w, old)

    def test_mask_rows_train_as_tuples(self):
        # the engine's experiences hold rows of its (beam, UE) mask array
        cfg = AgentConfig(action_count=3, minibatch=4, nn_learning_rate=0.1)
        mask = np.array([[True, False, True], [False, True, False], [False, True, True]])
        rng = make_rng(4)
        fields = [
            (rng.random(), a, rng.random(), 0.5 + 0.5 * rng.random(), rng.normal(size=(2, 4)), b)
            for a, b in ((0, 0), (2, 0), (1, 1), (2, 2))
        ]
        results = []
        for row in (lambda b: mask[b], lambda b: tuple(mask[b].tolist()), lambda b: (True,) * 3):
            main, target = LstmNetwork(4, 3, seed=1), LstmNetwork(4, 3, seed=2)
            batch = [ExperienceTuple(s, a, n, r, tuple(hc), row(b)) for s, a, n, r, hc, b in fields]
            results.append((train_step(main, target, batch, cfg), main.arrays()))
        (loss, weights), (tuple_loss, tuple_weights), (unmasked_loss, _) = results
        assert loss == tuple_loss
        assert all(np.array_equal(x, y) for x, y in zip(weights, tuple_weights))
        assert loss != unmasked_loss  # the masks decide the bootstrap

    def test_gradients_match_finite_differences(self):
        # central differences on the full BPTT loss, two seeds here
        # (the acceptance suite runs ten)
        for seed in (0, 1):
            assert _max_gradcheck_error(seed) < 1e-4


def _max_gradcheck_error(seed, steps=4, batch=2, hidden=3, actions=2):
    rng = make_rng(derive_seed(9000, seed))
    net = LstmNetwork(hidden, actions, seed=seed)
    x = rng.normal(size=(steps, batch, 1))
    h0 = 0.5 * rng.normal(size=(batch, hidden))
    c0 = 0.5 * rng.normal(size=(batch, hidden))
    targets = rng.normal(size=(steps, batch, actions))

    def loss():
        qs, _, _ = _forward(net, x, h0, c0)
        return float(np.mean((qs - targets) ** 2))

    qs, _, cache = _forward(net, x, h0, c0)
    dqs = 2.0 * (qs - targets) / qs.size
    grads = _backward(net, cache, dqs)
    worst = 0.0
    eps = 1e-5
    for p, grad in zip(net.arrays(), grads, strict=True):
        numeric = np.zeros_like(grad)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            up = loss()
            p[idx] = orig - eps
            down = loss()
            p[idx] = orig
            numeric[idx] = (up - down) / (2 * eps)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-8)
        worst = max(worst, float(np.max(np.abs(grad - numeric) / denom)))
    return worst


class TestSyncAndReplay:
    def test_sync_copies_bitwise(self):
        main = LstmNetwork(4, 3, seed=1)
        target = LstmNetwork(4, 3, seed=2)
        sync_target(main, target)
        rng = make_rng(3)
        for _ in range(100):
            s = float(rng.random())
            qm, _ = lstm_forward(main, [s])
            qt, _ = lstm_forward(target, [s])
            assert np.array_equal(qm, qt)

    def test_target_starts_as_init_copy_and_sync_idempotent(self):
        agent = DqnAgent(AgentConfig(action_count=2, seed=5))
        for w, t in zip(agent.main.arrays(), agent.target.arrays()):
            assert np.array_equal(w, t)
        agent.sync()
        snap = [w.copy() for w in agent.target.arrays()]
        agent.sync()
        for w, old in zip(agent.target.arrays(), snap):
            assert np.array_equal(w, old)

    def test_target_stale_between_syncs(self):
        cfg = AgentConfig(action_count=2, minibatch=1, seed=6)
        agent = DqnAgent(cfg)
        snap = [w.copy() for w in agent.target.arrays()]
        exp = ExperienceTuple(0.3, 0, 0.7, 0.5, zero_carry(agent), ALL)
        for _ in range(5):
            train_step(agent.main, agent.target, [exp], cfg)
        for w, old in zip(agent.target.arrays(), snap):
            assert np.array_equal(w, old)

    def test_replay_evicts_oldest(self):
        mem = ReplayMemory(capacity=60)
        for i in range(61):
            mem.push(ExperienceTuple(float(i), 0, 0.0, 0.5, (np.zeros(1), np.zeros(1)), ALL))
        assert len(mem) == 60
        assert mem._buf[0].state == 1.0

    def test_sample_distinct_and_not_ready(self):
        mem = ReplayMemory(capacity=60)
        assert mem.sample(20, make_rng(0)) is None
        for i in range(60):
            mem.push(ExperienceTuple(float(i), 0, 0.0, 0.5, (np.zeros(1), np.zeros(1)), ALL))
        batch = mem.sample(20, make_rng(1))
        states = [e.state for e in batch]
        assert len(set(states)) == 20

    def test_sample_uniform_inclusion(self):
        # 20-of-60 without replacement: every index included 1/3 of draws
        mem = ReplayMemory(capacity=60)
        for i in range(60):
            mem.push(ExperienceTuple(float(i), 0, 0.0, 0.5, (np.zeros(1), np.zeros(1)), ALL))
        rng = make_rng(2)
        counts = np.zeros(60)
        trials = 100_000
        for _ in range(trials):
            for e in mem.sample(20, rng):
                counts[int(e.state)] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 1 / 3) < 0.02 * (1 / 3) + 0.002)


class TestBanditSanity:
    def test_single_seed_quick(self):
        # arm 0 pays 0.9, arm 1 pays 0.1; greedy policy should lock on
        # (the acceptance suite runs five seeds to the full budget)
        assert bandit_optimal_fraction(seed=0, train_steps=800) >= 0.95


def bandit_optimal_fraction(seed, train_steps=2000, eval_states=200):
    cfg = AgentConfig(
        action_count=2, gamma=0.0, epsilon=0.1, nn_learning_rate=0.01,
        hidden_units=20, minibatch=20, replay_capacity=60, seed=seed,
    )
    agent = DqnAgent(cfg)
    env_rng = make_rng(derive_seed(seed, 99))
    trained = 0
    while trained < train_steps:
        s = float(env_rng.random())
        carry = zero_carry(agent)
        a, _ = agent.act(s, carry)
        r = 0.9 if a == 0 else 0.1
        ns = float(env_rng.random())
        agent.remember(ExperienceTuple(s, a, ns, r, carry, ALL))
        if agent.train() is not None:
            trained += 1
    hits = 0
    for _ in range(eval_states):
        s = float(env_rng.random())
        a, _ = select_action(agent.main, s, zero_carry(agent), 0.0, env_rng)
        hits += a == 0
    return hits / eval_states


class TestDeterminism:
    def test_identical_seeds_identical_training(self):
        def trajectory(seed):
            cfg = AgentConfig(action_count=2, minibatch=5, replay_capacity=20, seed=seed)
            agent = DqnAgent(cfg)
            env_rng = make_rng(123)
            losses = []
            for _ in range(60):
                s = float(env_rng.random())
                carry = zero_carry(agent)
                a, _ = agent.act(s, carry)
                agent.remember(ExperienceTuple(s, a, float(env_rng.random()), 0.5, carry, ALL))
                loss = agent.train()
                if loss is not None:
                    losses.append(loss)
            return losses, [w.copy() for w in agent.main.arrays()]

        l1, p1 = trajectory(42)
        l2, p2 = trajectory(42)
        assert l1 == l2
        for w1, w2 in zip(p1, p2):
            assert np.array_equal(w1, w2)


def test_agent_config_validation():
    with pytest.raises(ConfigError):
        AgentConfig(action_count=0)
    with pytest.raises(ConfigError):
        AgentConfig(action_count=2, gamma=1.5)
    with pytest.raises(ConfigError):
        AgentConfig(action_count=2, minibatch=100, replay_capacity=60)
