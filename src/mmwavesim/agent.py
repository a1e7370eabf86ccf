"""Per-beam deep Q-learning scheduler built on a from-scratch LSTM.

The recurrent Q-network follows the standard gate recursion

    i_t = sigm(x_t Wx_i + h_{t-1} Wh_i + b_i)      input gate
    f_t = sigm(x_t Wx_f + h_{t-1} Wh_f + b_f)      forget gate
    o_t = sigm(x_t Wx_o + h_{t-1} Wh_o + b_o)      output gate
    g_t = tanh(x_t Wx_g + h_{t-1} Wh_g + b_g)      candidate
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)
    q_t = h_t Wq + bq

with Q-values one per schedulable user. Training minimizes the mean
squared temporal-difference error against a delayed target copy of the
network, using plain gradient descent; gradients are obtained by full
backpropagation through time and are validated against central finite
differences in the test suite.

The recurrent carry lives for the resource-block groups of one TTI and
resets at TTI boundaries; experiences store the carry observed at
decision time so replayed transitions are recomputed in their original
context.

`AgentStack` holds the main networks of one run's agents on a leading
agent axis and advances all of them by one step per call, with the same
floating-point operations as `select_action` on each agent.
`RolloutMemo` keeps its steps within a TTI, each with its greedy
decision, so a repeated sequence of input states is not computed again.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .fields import check_fields, ranged
from .seeding import derive_seed, make_rng

__all__ = [
    "UserClass",
    "AgentConfig",
    "ExperienceTuple",
    "LstmNetwork",
    "ReplayMemory",
    "DqnAgent",
    "AgentStack",
    "RolloutMemo",
    "ROLLOUT_MEMO_CAP",
    "encode_state",
    "reward",
    "lstm_forward",
    "select_action",
    "train_step",
    "sync_target",
]

_GATES = ("i", "f", "o", "g")

# scipy.special.expit, bound when the first LstmNetwork is built: importing
# scipy.special takes about 0.3 s and 18 MB, which a run without agents (a
# coverage sweep) need not pay, and only the gates call it
_sigmoid = None


class UserClass(Enum):
    URLLC = "urllc"
    EMBB = "embb"


@dataclass(frozen=True)
class AgentConfig:
    action_count: int = ranged(lo=1)
    gamma: float = ranged(0.9, lo=0.0, hi=1.0)
    epsilon: float = ranged(0.1, lo=0.0, hi=1.0)
    nn_learning_rate: float = ranged(0.01, lo=0.0, closed=False)
    hidden_units: int = ranged(20, lo=1)
    input_size: int = ranged(1, lo=1)
    minibatch: int = ranged(20, lo=1)
    replay_capacity: int = ranged(60, lo=1)
    train_interval_ttis: int = ranged(60, lo=1)
    target_copy_interval_ttis: int = ranged(120, lo=1)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.minibatch > self.replay_capacity:
            rule = ("minibatch", "replay_capacity")
            raise ConfigError("minibatch cannot exceed replay_capacity", rule)


@dataclass
class ExperienceTuple:
    state: float
    action: int
    next_state: float
    reward: float
    hidden_context: tuple  # (h, c) carry at decision time, each shape (H,)
    action_mask: Optional[tuple] = None  # feasible actions at decision time


def encode_state(cqi: int) -> float:
    """CQI index normalized to [0, 1]."""
    if not 0 <= cqi <= 15:
        raise ConfigError(f"cqi must be in [0, 15], got {cqi}")
    return cqi / 15.0


def reward(user_class: UserClass, sinr_ratio: float, delay_ratio: float = None) -> float:
    """QoS reward in (0, 1).

    Rate-sensitive users score sigm(sinr_ratio); latency-sensitive users
    score sigm(sinr_ratio * delay_ratio), where sinr_ratio is the linear
    SINR over its QoS requirement and delay_ratio is the latency budget
    over the (floored) head-of-line delay.
    """
    if sinr_ratio <= 0:
        raise ConfigError("sinr_ratio must be > 0")
    if user_class is UserClass.URLLC:
        if delay_ratio is None or delay_ratio <= 0:
            raise ConfigError("URLLC reward needs delay_ratio > 0")
        x = sinr_ratio * delay_ratio
    else:
        x = sinr_ratio
    return 1.0 / (1.0 + math.exp(-x))


class LstmNetwork:
    """Gate weights plus the linear Q-value head.

    The gates are stored fused, in the column order i, f, o, g: `wx`
    (D, 4H), `wh` (H, 4H) and `b` (4H,), beside `wq` (H, A) and `bq`
    (A,). `params` maps wx_i, wh_i, b_i, ... (one triple per gate), wq
    and bq to views of that storage, so an in-place update under either
    name shows under both. Initialization is uniform on [-0.1, 0.1]
    drawn in a fixed key order from the seed.
    """

    def __init__(self, input_size: int, hidden_units: int, action_count: int, seed: int = 0):
        global _sigmoid
        if _sigmoid is None:
            from scipy.special import expit as _sigmoid
        self.input_size = input_size
        self.hidden_units = hidden_units
        self.action_count = action_count
        rng = make_rng(seed)
        d, h, a = input_size, hidden_units, action_count
        wx = np.empty((d, 4 * h))
        wh = np.empty((h, 4 * h))
        b = np.empty(4 * h)
        for k in range(len(_GATES)):
            cols = slice(k * h, (k + 1) * h)
            wx[:, cols] = rng.uniform(-0.1, 0.1, size=(d, h))
            wh[:, cols] = rng.uniform(-0.1, 0.1, size=(h, h))
            b[cols] = rng.uniform(-0.1, 0.1, size=(h,))
        wq = rng.uniform(-0.1, 0.1, size=(h, a))
        bq = rng.uniform(-0.1, 0.1, size=(a,))
        self._bind(wx, wh, b, wq, bq)

    def _bind(self, wx, wh, b, wq, bq) -> None:
        """Adopt the arrays as storage and rebuild the per-gate views."""
        self.wx, self.wh, self.b, self.wq, self.bq = wx, wh, b, wq, bq
        h = self.hidden_units
        p = {}
        for k, gate in enumerate(_GATES):
            cols = slice(k * h, (k + 1) * h)
            p[f"wx_{gate}"] = wx[:, cols]
            p[f"wh_{gate}"] = wh[:, cols]
            p[f"b_{gate}"] = b[cols]
        p["wq"] = wq
        p["bq"] = bq
        self.params = p

    def arrays(self) -> tuple:
        """The storage arrays (wx, wh, b, wq, bq)."""
        return (self.wx, self.wh, self.b, self.wq, self.bq)

    def clone(self) -> "LstmNetwork":
        other = LstmNetwork.__new__(LstmNetwork)
        other.input_size = self.input_size
        other.hidden_units = self.hidden_units
        other.action_count = self.action_count
        other._bind(*(v.copy() for v in self.arrays()))
        return other

    def zero_carry(self, batch: Optional[int] = None):
        if batch is None:
            return (np.zeros(self.hidden_units), np.zeros(self.hidden_units))
        return (
            np.zeros((batch, self.hidden_units)),
            np.zeros((batch, self.hidden_units)),
        )


def _forward(net: LstmNetwork, x: np.ndarray, h0: np.ndarray, c0: np.ndarray):
    """Batched forward pass.

    x has shape (T, B, D); h0/c0 have shape (B, H). Returns Q-values of
    shape (T, B, A), the final carry and the step cache for backprop.
    """
    p = net.params
    steps, batch, _ = x.shape
    qs = np.empty((steps, batch, net.action_count))
    h, c = h0, c0
    cache = []
    for t in range(steps):
        xt = x[t]
        i = _sigmoid(xt @ p["wx_i"] + h @ p["wh_i"] + p["b_i"])
        f = _sigmoid(xt @ p["wx_f"] + h @ p["wh_f"] + p["b_f"])
        o = _sigmoid(xt @ p["wx_o"] + h @ p["wh_o"] + p["b_o"])
        g = np.tanh(xt @ p["wx_g"] + h @ p["wh_g"] + p["b_g"])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        qs[t] = h_new @ p["wq"] + p["bq"]
        cache.append((xt, h, c, i, f, o, g, tc, h_new))
        h, c = h_new, c_new
    return qs, (h, c), cache


def _backward(net: LstmNetwork, cache, dqs: np.ndarray):
    """Backpropagation through time for the loss gradient dqs = dL/dq.

    Returns parameter gradients keyed like `net.params`. Gradients do
    not flow into the initial carry (it is treated as an input).
    """
    p = net.params
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    batch = dqs.shape[1]
    hdim = net.hidden_units
    dh_next = np.zeros((batch, hdim))
    dc_next = np.zeros((batch, hdim))
    for t in range(len(cache) - 1, -1, -1):
        xt, h_prev, c_prev, i, f, o, g, tc, h_new = cache[t]
        dq = dqs[t]
        grads["wq"] += h_new.T @ dq
        grads["bq"] += dq.sum(axis=0)
        dh = dq @ p["wq"].T + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_next = dc * f
        d_ai = di * i * (1.0 - i)
        d_af = df * f * (1.0 - f)
        d_ao = do * o * (1.0 - o)
        d_ag = dg * (1.0 - g * g)
        dh_next = np.zeros((batch, hdim))
        for gate, da in zip(_GATES, (d_ai, d_af, d_ao, d_ag)):
            grads[f"wx_{gate}"] += xt.T @ da
            grads[f"wh_{gate}"] += h_prev.T @ da
            grads[f"b_{gate}"] += da.sum(axis=0)
            dh_next += da @ p[f"wh_{gate}"].T
    return grads


def _as_sequence(states) -> np.ndarray:
    x = np.asarray(states, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1, 1)
    elif x.ndim == 1:
        x = x.reshape(-1, 1, 1)
    elif x.ndim == 2:
        x = x[:, None, :]
    return x


def lstm_forward(net: LstmNetwork, states, carry=None):
    """Q-value rows for a single state sequence.

    `states` is (T,) of scalars or (T, D); `carry` is an optional (h, c)
    pair of shape-(H,) arrays. Returns (q, carry) with q of shape (T, A).
    """
    x = _as_sequence(states)
    if carry is None:
        h0, c0 = net.zero_carry(batch=1)
    else:
        h0 = carry[0].reshape(1, -1)
        c0 = carry[1].reshape(1, -1)
    qs, (h, c), _ = _forward(net, x, h0, c0)
    return qs[:, 0, :], (h[0], c[0])


def select_action(
    net: LstmNetwork,
    state: float,
    carry,
    epsilon: float,
    rng: np.random.Generator,
    mask: Optional[Sequence[bool]] = None,
):
    """Epsilon-greedy action and the advanced carry.

    With probability epsilon a uniform draw over the feasible actions,
    otherwise the feasible argmax of the Q-row (lowest index on ties).
    `mask` marks feasible actions; None means all are feasible.
    """
    q, new_carry = lstm_forward(net, [state], carry)
    if mask is None:
        feasible = np.arange(net.action_count)
    else:
        feasible = np.flatnonzero(np.asarray(mask, dtype=bool))
        if feasible.size == 0:
            raise ConfigError("action mask excludes every action")
    return _epsilon_greedy(q[0], feasible, epsilon, rng), new_carry


def _epsilon_greedy(row: np.ndarray, feasible: np.ndarray, epsilon: float, rng) -> int:
    """A uniform feasible action with probability epsilon, else the
    feasible argmax of `row` (lowest index on ties)."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(feasible[rng.integers(feasible.size)])
    return int(feasible[row[feasible].argmax()])


def train_step(
    main: LstmNetwork, target: LstmNetwork, batch: Sequence[ExperienceTuple], cfg: AgentConfig
) -> float:
    """One gradient-descent update of the main network; returns the loss.

    The target value is r + gamma * max_a Q_target(s', a), with the
    target network advanced through (s, s') from the stored carry so the
    bootstrap is evaluated in the context the next decision would see.
    The loss is the mean squared TD error over the minibatch; the target
    network is left untouched.
    """
    if len(batch) != cfg.minibatch:
        raise ConfigError(f"minibatch size must be {cfg.minibatch}, got {len(batch)}")
    b = len(batch)
    h0 = np.stack([e.hidden_context[0] for e in batch])
    c0 = np.stack([e.hidden_context[1] for e in batch])
    states = np.array([e.state for e in batch]).reshape(1, b, 1)
    actions = np.array([e.action for e in batch], dtype=int)
    rewards = np.array([e.reward for e in batch])

    x_target = np.array(
        [[e.state for e in batch], [e.next_state for e in batch]]
    ).reshape(2, b, 1)
    q_target, _, _ = _forward(target, x_target, h0, c0)
    q_next = q_target[1].copy()
    for row, e in enumerate(batch):
        if e.action_mask is not None:
            q_next[row, ~np.asarray(e.action_mask, dtype=bool)] = -np.inf
    targets = rewards + cfg.gamma * q_next.max(axis=1)

    qs, _, cache = _forward(main, states, h0, c0)
    preds = qs[0, np.arange(b), actions]
    td = targets - preds
    loss = float(np.mean(td * td))

    dqs = np.zeros_like(qs)
    dqs[0, np.arange(b), actions] = -2.0 * td / b
    grads = _backward(main, cache, dqs)
    lr = cfg.nn_learning_rate
    for k, g in grads.items():
        main.params[k] -= lr * g
    return loss


def sync_target(main: LstmNetwork, target: LstmNetwork) -> None:
    """Copy the main parameters into the target, bit for bit."""
    for dst, src in zip(target.arrays(), main.arrays()):
        np.copyto(dst, src)


class ReplayMemory:
    """Ring buffer of experiences with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("replay capacity must be >= 1")
        self.capacity = capacity
        self._buf = deque(maxlen=capacity)

    def __len__(self):
        return len(self._buf)

    def push(self, exp: ExperienceTuple) -> None:
        self._buf.append(exp)

    def sample(self, size: int, rng: np.random.Generator):
        """`size` distinct experiences, or None while underfilled."""
        if len(self._buf) < size:
            return None
        idx = rng.choice(len(self._buf), size=size, replace=False)
        return [self._buf[int(i)] for i in idx]


class DqnAgent:
    """One beam's scheduler: paired networks, replay memory and rngs.

    Sub-seeds are derived from cfg.seed so two agents with different
    seeds share nothing; all operations on one agent are sequential.
    """

    def __init__(self, cfg: AgentConfig):
        self.cfg = cfg
        self.main = LstmNetwork(
            cfg.input_size, cfg.hidden_units, cfg.action_count, seed=derive_seed(cfg.seed, 0)
        )
        self.target = self.main.clone()
        self.replay = ReplayMemory(cfg.replay_capacity)
        self.action_rng = make_rng(derive_seed(cfg.seed, 1))
        self.sample_rng = make_rng(derive_seed(cfg.seed, 2))
        self.last_cqi = 0

    def act(self, state: float, carry, mask=None):
        return select_action(self.main, state, carry, self.cfg.epsilon, self.action_rng, mask)

    def remember(self, exp: ExperienceTuple) -> None:
        self.replay.push(exp)

    def train(self):
        """One minibatch update if the memory is ready, else None."""
        batch = self.replay.sample(self.cfg.minibatch, self.sample_rng)
        if batch is None:
            return None
        return train_step(self.main, self.target, batch, self.cfg)

    def sync(self) -> None:
        sync_target(self.main, self.target)


class AgentStack:
    """The main networks of several agents on a leading agent axis.

    Each agent's `main` is rebound to views of its slice of the stack,
    so training through `train_step` updates the stack in place. The
    agents must share input size, hidden units and action count.
    """

    def __init__(self, agents: Sequence[DqnAgent]):
        self.agents = list(agents)
        nets = [agent.main for agent in self.agents]
        self.wx, self.wh, self.b, self.wq, self.bq = (
            np.stack(parts) for parts in zip(*(net.arrays() for net in nets))
        )
        for k, net in enumerate(nets):
            net._bind(self.wx[k], self.wh[k], self.b[k], self.wq[k], self.bq[k])
        n, d, h = len(nets), nets[0].input_size, nets[0].hidden_units
        # (agent, gate, row, column) views of the fused gate columns: one
        # BLAS product per gate, as in `_forward`. A single (H, 4H) product
        # rounds the last columns of a gate differently whenever H is not
        # a multiple of the BLAS kernel's block.
        self._wx_gates = self.wx.reshape(n, d, 4, h).transpose(0, 2, 1, 3)
        self._wh_gates = self.wh.reshape(n, h, 4, h).transpose(0, 2, 1, 3)

    def zero_carry(self):
        """(h, c) of every agent at the start of a TTI, each (N, H)."""
        return self.agents[0].main.zero_carry(batch=len(self.agents))

    def forward(self, x: np.ndarray, carry):
        """One LSTM step of every agent.

        x is (N, D) and the carry (h, c) holds two (N, H) arrays. Returns
        the Q-rows (N, A) and the new carry; row k equals, bit for bit,
        `lstm_forward` of agent k on (x[k], (h[k], c[k])).
        """
        h, c = carry
        n, hd = h.shape
        z = (
            np.matmul(x[:, None, None, :], self._wx_gates)
            + np.matmul(h[:, None, None, :], self._wh_gates)
        ).reshape(n, 4 * hd) + self.b
        ifo = _sigmoid(z[:, : 3 * hd])
        i, f, o = ifo[:, :hd], ifo[:, hd : 2 * hd], ifo[:, 2 * hd :]
        g = np.tanh(z[:, 3 * hd :])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        q = np.matmul(h_new[:, None, :], self.wq)[:, 0] + self.bq
        return q, (h_new, c_new)

    def greedy(self, q: np.ndarray, mask: np.ndarray) -> list:
        """Every agent's feasible argmax of q[k] under `mask` (N, A), as in
        `_epsilon_greedy`: the lowest index on ties, the first NaN if there
        is one, and the lowest feasible index if every feasible entry is -inf."""
        actions = np.where(mask, q, -np.inf).argmax(axis=1).tolist()
        for k, a in enumerate(actions):
            if not mask[k, a]:  # every feasible entry is -inf: argmax gave 0
                actions[k] = int(np.flatnonzero(mask[k])[0])
        return actions

    def explore(self, greedy: list, feasible: Sequence[tuple]) -> list:
        """`greedy` after exploration: agent k draws from its `action_rng` as in
        `_epsilon_greedy` and, exploring, takes a uniform member of `feasible[k]`
        (ascending). Returns `greedy` itself when no agent explores."""
        actions = greedy
        for k, agent in enumerate(self.agents):
            epsilon, rng = agent.cfg.epsilon, agent.action_rng
            if epsilon > 0.0 and rng.random() < epsilon:
                pick = feasible[k][rng.integers(len(feasible[k]))]
                actions = actions[:k] + [pick] + actions[k + 1 :]  # a copy: `greedy` is kept
        return actions


# the most nodes one RolloutMemo keeps, each a 2NH-float carry and N actions and
# states; it bounds the memory of a run whose geometry and weights never change
ROLLOUT_MEMO_CAP = 4096


class _Node:
    __slots__ = ("carry", "children", "greedy", "greedy_states")

    def __init__(self, carry, greedy=None, greedy_states=None):
        self.carry = carry  # the carry after the step into this node
        self.greedy = greedy  # the greedy actions of that step's Q-rows
        self.greedy_states = greedy_states  # the next RBG's states after them
        self.children = {}  # next RBG's tuple of states -> _Node


class RolloutMemo:
    """`AgentStack.forward` results of the RBGs of a TTI, kept across TTIs.

    The carry restarts at zero every TTI, so the Q-rows and the carry
    after RBG r are a function of the main weights and of every agent's
    (scalar) input state at RBGs 0..r. A prefix tree holds them, one
    edge per RBG keyed by the tuple of states, and `forward` runs only
    for an edge not yet in the tree. A node keeps the carry, the greedy
    actions under the geometry's `mask` and the states they lead to
    (`next_states[b][action]`). Call `clear` whenever the weights change.
    """

    def __init__(self, stack: AgentStack, mask: np.ndarray, next_states: Sequence[dict]):
        self.stack = stack
        self.mask = mask
        self.next_states = next_states
        self.clear()

    def clear(self) -> None:
        self.root = _Node(self.stack.zero_carry())
        self.size = 0  # nodes below the root

    def states(self, actions: Sequence[int]) -> tuple:
        return tuple(self.next_states[b][a] for b, a in enumerate(actions))

    def step(self, node: _Node, key: tuple) -> _Node:
        """The node one RBG after `node` with the input states `key`."""
        child = node.children.get(key)
        if child is None:
            q, carry = self.stack.forward(np.asarray(key, dtype=float).reshape(-1, 1), node.carry)
            greedy = self.stack.greedy(q, self.mask)
            child = _Node(carry, greedy, self.states(greedy))
            if self.size < ROLLOUT_MEMO_CAP:
                node.children[key] = child
                self.size += 1
        return child
