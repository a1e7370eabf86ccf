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
agent axis and advances all of them by one step per call, on an (agent,
row) grid of rows, with the same floating-point operations as
`select_action` on each row (see `window`, which steps them).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

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
    "DrawSource",
    "encode_state",
    "reward",
    "lstm_forward",
    "select_action",
    "train_step",
    "sync_target",
]

def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + exp(-z)) of the gates, in a new array: the
    formula of scipy.special.expit. Where exp(-z) overflows the result is 0,
    with a RuntimeWarning that `ScenarioRun.run` silences."""
    out = np.negative(z)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


class UserClass(Enum):
    URLLC = "urllc"
    EMBB = "embb"


@dataclass(frozen=True)
class AgentConfig:
    action_count: int = ranged(lo=1)
    gamma: float = ranged(0.9, lo=0.0, hi=1.0)
    epsilon: float = ranged(0.1, lo=0.0, hi=1.0)
    nn_learning_rate: float = ranged(0.01, lo=0.0, closed=False)
    # the (H, 4H) gate matrix of each network takes 8 * 4 * H**2 bytes: 2 MB at 256
    hidden_units: int = ranged(20, lo=1, hi=256)
    # a train step's arrays peak at about 47 MB at 1,000 and 256 hidden units
    minibatch: int = ranged(20, lo=1, hi=1000)
    # each agent keeps this many experiences, about 410 + 16 * hidden_units bytes
    # each with its share of the carries they view: 45 MB at 256 hidden units
    replay_capacity: int = ranged(60, lo=1, hi=10_000)
    train_interval_ttis: int = ranged(60, lo=1)
    target_copy_interval_ttis: int = ranged(120, lo=1)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.minibatch > self.replay_capacity:
            rule = ("minibatch", "replay_capacity")
            raise ConfigError("minibatch cannot exceed replay_capacity", rule)


class ExperienceTuple(NamedTuple):
    state: float
    action: int
    next_state: float
    reward: float
    hidden_context: tuple  # (h, c) carry at decision time, each shape (H,)
    action_mask: Sequence[bool]  # feasible actions at decision time, e.g. a mask row


def encode_state(cqi: int) -> float:
    """CQI index (0..15, as `beams.sinr_to_cqi` gives it) normalized to [0, 1]."""
    return cqi / 15.0


def reward(user_class: UserClass, sinr_ratio: float, delay_ratio: float) -> float:
    """QoS reward in [1/2, 1].

    Rate-sensitive users score sigm(sinr_ratio); latency-sensitive users
    score sigm(sinr_ratio * delay_ratio), where sinr_ratio >= 0 is the
    linear SINR over its QoS requirement and delay_ratio > 0 is the
    latency budget over the (floored) head-of-line delay.
    """
    x = sinr_ratio * delay_ratio if user_class is UserClass.URLLC else sinr_ratio
    return 1.0 / (1.0 + math.exp(-x))


def _gate_columns(hidden_units: int) -> list:
    """The column slice of each gate, i, f, o, g, in the fused arrays."""
    return [slice(k * hidden_units, (k + 1) * hidden_units) for k in range(4)]


class LstmNetwork:
    """Gate weights plus the linear Q-value head.

    The input is one scalar state. The weights are the five fused arrays
    `arrays()` returns, their only spelling: the gates in the column order
    i, f, o, g in `wx` (4H,), `wh` (H, 4H) and `b` (4H,), beside `wq`
    (H, A) and `bq` (A,). Initialization is uniform on [-0.1, 0.1], drawn
    per gate (its wx, wh and b columns) and then wq and bq from the seed.
    """

    def __init__(self, hidden_units: int, action_count: int, seed: int = 0):
        self.hidden_units = hidden_units
        self.action_count = action_count
        rng = make_rng(seed)
        h, a = hidden_units, action_count
        self.wx = np.empty(4 * h)
        self.wh = np.empty((h, 4 * h))
        self.b = np.empty(4 * h)
        for cols in _gate_columns(h):
            self.wx[cols] = rng.uniform(-0.1, 0.1, size=(h,))
            self.wh[:, cols] = rng.uniform(-0.1, 0.1, size=(h, h))
            self.b[cols] = rng.uniform(-0.1, 0.1, size=(h,))
        self.wq = rng.uniform(-0.1, 0.1, size=(h, a))
        self.bq = rng.uniform(-0.1, 0.1, size=(a,))

    def arrays(self) -> tuple:
        """The weight arrays (wx, wh, b, wq, bq)."""
        return (self.wx, self.wh, self.b, self.wq, self.bq)

    def clone(self) -> "LstmNetwork":
        other = LstmNetwork.__new__(LstmNetwork)
        other.hidden_units = self.hidden_units
        other.action_count = self.action_count
        other.wx, other.wh, other.b, other.wq, other.bq = (v.copy() for v in self.arrays())
        return other


def _forward(net: LstmNetwork, x: np.ndarray, h0: np.ndarray, c0: np.ndarray):
    """Batched forward pass.

    x has shape (T, B, 1); h0/c0 have shape (B, H). Returns Q-values of
    shape (T, B, A), the final carry and the step cache for backprop.
    """
    gates = [(net.wx[s], net.wh[:, s], net.b[s]) for s in _gate_columns(net.hidden_units)]
    steps, batch, _ = x.shape
    qs = np.empty((steps, batch, net.action_count))
    h, c = h0, c0
    cache = []
    for t, xt in enumerate(x):
        zi, zf, zo, zg = (xt * wx + h @ wh + b for wx, wh, b in gates)
        i, f, o, g = _sigmoid(zi), _sigmoid(zf), _sigmoid(zo), np.tanh(zg)
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        qs[t] = h_new @ net.wq + net.bq
        cache.append((xt, h, c, i, f, o, g, tc, h_new))
        h, c = h_new, c_new
    return qs, (h, c), cache


def _backward(net: LstmNetwork, cache, dqs: np.ndarray):
    """Backpropagation through time for the loss gradient dqs = dL/dq.

    Returns the gradients of the five weight arrays, in `arrays()` order,
    each gate's terms added into its columns. Gradients do not flow into
    the initial carry (it is treated as an input).
    """
    gwx, gwh, gb, gwq, gbq = grads = tuple(np.zeros_like(v) for v in net.arrays())
    batch = dqs.shape[1]
    hdim = net.hidden_units
    gates = _gate_columns(hdim)
    dh_next = np.zeros((batch, hdim))
    dc_next = np.zeros((batch, hdim))
    for t in range(len(cache) - 1, -1, -1):
        xt, h_prev, c_prev, i, f, o, g, tc, h_new = cache[t]
        dq = dqs[t]
        gwq += h_new.T @ dq
        gbq += dq.sum(axis=0)
        dh = dq @ net.wq.T + dh_next
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
        for cols, da in zip(gates, (d_ai, d_af, d_ao, d_ag)):
            gwx[cols] += xt[:, 0] @ da
            gwh[:, cols] += h_prev.T @ da
            gb[cols] += da.sum(axis=0)
            dh_next += da @ net.wh[:, cols].T
    return grads


def lstm_forward(net: LstmNetwork, states, carry=None):
    """Q-value rows for a single state sequence.

    `states` is (T,) of scalars; `carry` is an optional (h, c) pair of
    shape-(H,) arrays. Returns (q, carry) with q of shape (T, A).
    """
    x = np.asarray(states, dtype=float).reshape(-1, 1, 1)
    if carry is None:
        h0 = c0 = np.zeros((1, net.hidden_units))
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
    q_next = np.where([e.action_mask for e in batch], q_target[1], -np.inf)
    targets = rewards + cfg.gamma * q_next.max(axis=1)

    qs, _, cache = _forward(main, states, h0, c0)
    preds = qs[0, np.arange(b), actions]
    td = targets - preds
    loss = float(np.mean(td * td))

    dqs = np.zeros_like(qs)
    dqs[0, np.arange(b), actions] = -2.0 * td / b
    grads = _backward(main, cache, dqs)
    lr = cfg.nn_learning_rate
    for w, g in zip(main.arrays(), grads):
        w -= lr * g
    return loss


def sync_target(main: LstmNetwork, target: LstmNetwork) -> None:
    """Copy the main parameters into the target, bit for bit."""
    for dst, src in zip(target.arrays(), main.arrays()):
        np.copyto(dst, src)


class ReplayMemory:
    """Ring buffer of experiences with uniform sampling."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._buf = deque(maxlen=capacity)

    def __len__(self):
        return len(self._buf)

    def push(self, exp: ExperienceTuple) -> None:
        self._buf.append(exp)

    def sample(self, size: int, rng: np.random.Generator):
        """`size` distinct experiences, or None while underfilled."""
        if len(self) < size:
            return None
        idx = rng.choice(len(self), size=size, replace=False)
        return [self._buf[int(i)] for i in idx]


class DqnAgent:
    """One beam's scheduler: paired networks, replay memory and rngs.

    Sub-seeds are derived from cfg.seed so two agents with different
    seeds share nothing; all operations on one agent are sequential.
    """

    def __init__(self, cfg: AgentConfig):
        self.cfg = cfg
        self.main = LstmNetwork(cfg.hidden_units, cfg.action_count, seed=derive_seed(cfg.seed, 0))
        self.target = self.main.clone()
        self.replay = ReplayMemory(cfg.replay_capacity)
        self.action_rng = make_rng(derive_seed(cfg.seed, 1))
        self.sample_rng = make_rng(derive_seed(cfg.seed, 2))

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

    Each agent's `main` takes as its five weight arrays the views of its
    slice of the stack, so training through `train_step` updates the
    stack in place. The
    agents must share hidden units and action count. `draws[k]` is agent
    k's `DrawSource` over its `action_rng`, which nothing else reads.
    """

    def __init__(self, agents: Sequence[DqnAgent]):
        self.agents = list(agents)
        nets = [agent.main for agent in self.agents]
        stacked = [np.stack(parts) for parts in zip(*(net.arrays() for net in nets))]
        self.wx, self.wh, self.b, self.wq, self.bq = stacked
        for k, net in enumerate(nets):
            net.wx, net.wh, net.b, net.wq, net.bq = (w[k] for w in stacked)
        n, h = len(nets), nets[0].hidden_units
        # (agent, 1, gate, row, column) views of the fused gate columns: one
        # BLAS product per gate, as in `_forward`. A single (H, 4H) product
        # rounds the last columns of a gate differently whenever H is not
        # a multiple of the BLAS kernel's block.
        wh_gates = self.wh.reshape(n, h, 4, h).transpose(0, 2, 1, 3)
        self._weights = tuple(w[:, None] for w in (self.wx, wh_gates, self.b, self.wq, self.bq))
        self.draws = [
            DrawSource(agent.action_rng.bit_generator, agent.cfg.epsilon) for agent in self.agents
        ]

    def forward(self, x: np.ndarray, carry):
        """One LSTM step of every agent, on each of its rows.

        x is (N, M, 1) and the carry (h, c) holds two (N, M, H) arrays: agent
        k's rows are x[k], h[k] and c[k]. Returns the Q-rows (N, M, A) and the
        new carry; every row equals, bit for bit, `lstm_forward` of its agent
        on its state and carry, since each row's products with the weights
        are its own.
        """
        h, c = carry
        hd = h.shape[-1]
        wx, wh_gates, b, wq, bq = self._weights
        gates = np.matmul(h[..., None, None, :], wh_gates).reshape(*h.shape[:-1], 4 * hd)
        z = x * wx + gates + b
        ifo = _sigmoid(z[..., : 3 * hd])
        i, f, o = ifo[..., :hd], ifo[..., hd : 2 * hd], ifo[..., 2 * hd :]
        g = np.tanh(z[..., 3 * hd :])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        q = np.matmul(h_new[..., None, :], wq)[..., 0, :] + bq
        return q, (h_new, c_new)

    def greedy(self, q: np.ndarray, mask: np.ndarray) -> list:
        """The feasible argmax of every Q-row of q (N, M, A) under its agent's
        row of `mask` (N, A), as in `_epsilon_greedy`: the lowest index on
        ties, the first NaN if there is one, and the lowest feasible index if
        every feasible entry is -inf. Per agent, the list of its rows' actions."""
        actions = np.where(mask[:, None], q, -np.inf).argmax(axis=-1).tolist()
        for k, acts in enumerate(actions):
            if 0 in acts and not mask[k, 0]:  # every feasible entry is -inf: argmax gave 0
                actions[k] = [a or int(mask[k].argmax()) for a in acts]
        return actions

    def explorations(self, feasible: Sequence[tuple], rbgs: int) -> list:
        """Per RBG of a TTI, the (agent, action) pairs of the agents that explore
        there, or None where none does: at each of `rbgs` RBGs in turn, agent k
        draws as `_epsilon_greedy` does (no draw at epsilon 0) and, exploring,
        takes a uniform member of `feasible[k]`. An agent with one member is
        not listed: its one action is also its greedy one."""
        picks = [None] * rbgs
        for k, (agent, draws) in enumerate(zip(self.agents, self.draws)):
            if agent.cfg.epsilon > 0.0:
                for r, action in draws.explore(rbgs, feasible[k]):
                    picks[r] = (picks[r] or ()) + ((k, action),)
        return picks


BLOCK = 128  # the raw draws a DrawSource reads from its bit generator at a time


class DrawSource:
    """One agent's exploration draws: the `random() < epsilon` tests and the
    `integers(n)`, 2 <= n < 2**32, of a `Generator` over a fresh PCG64 bit
    generator, from raw draws read BLOCK at a time (the bit generator's own
    state runs ahead). A double is the top 53 bits of a raw draw times 2**-53,
    so it is below epsilon exactly when the raw draw is at most `top`,
    ceil(epsilon * 2**53) * 2**11 - 1; a block's such draws are found when it
    is read. An integer is numpy's Lemire method (ACM TOMACS 2019) on 32-bit
    halves, the high one kept for the next integer."""

    def __init__(self, bit_generator: np.random.BitGenerator, epsilon: float):
        self.bit_generator = bit_generator
        self.top = math.ceil(epsilon * 2**53) * 2**11 - 1
        self._half = None  # the unread high half of the last raw draw integers took
        self._block = None  # the raw draws of the block being read
        self._pos = BLOCK  # the index in it of the next unread one
        self._below = []  # the indices of its draws at most `top`, ascending

    def _refill(self) -> None:
        self._block = self.bit_generator.random_raw(BLOCK)
        self._pos = 0
        self._below = (self._block <= self.top).nonzero()[0].tolist()

    def explore(self, count: int, members: tuple) -> list:
        """(i, member) of each of `count` epsilon-greedy draws that explores, in
        order: draw i explores when `random()` < epsilon, and then takes
        `members[integers(len(members))]`. One member is every draw's action
        (and `Generator.integers(1)` draws nothing), so then none is listed."""
        picks, i, n = [], 0, len(members)
        while i < count:
            if self._pos == BLOCK:
                self._refill()
            pos, below = self._pos, self._below
            j = bisect_left(below, pos) if n > 1 else len(below)
            hit = below[j] if j < len(below) else BLOCK  # the next draw that explores
            if hit - pos >= count - i:  # none of the rest of the `count` draws
                self._pos = pos + count - i
                break
            i += hit - pos
            self._pos = hit
            if hit < BLOCK:
                self._pos += 1
                picks.append((i, members[self.integers(n)]))
                i += 1
        return picks

    def integers(self, n: int) -> int:
        while True:
            half, self._half = self._half, None
            if half is None:
                if self._pos == BLOCK:
                    self._refill()
                raw = int(self._block[self._pos])
                self._pos += 1
                half, self._half = raw & 0xFFFFFFFF, raw >> 32
            m = half * n
            if m & 0xFFFFFFFF >= (2**32 - n) % n:  # else Lemire's rejection: draw again
                return m >> 32
