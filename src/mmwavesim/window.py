"""Scheduling windows: every agent's LSTM rollouts over the TTIs that share
one geometry and one set of main weights, one stacked `AgentStack.forward`
and `greedy` per RBG, resolved into a plan of each TTI's actions.

A `Window` rolls the agents out from every first state an agent can have
at each of its TTIs, then follows the one chain of first states that its
first TTI's states and its explorations give, so each of its TTIs only
reads its entry of `plan`; its actions equal, action for action and carry
for carry, stepping each TTI RBG by RBG.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

__all__ = ["Window", "Tti", "CALL_ROWS", "WINDOW_ROWS"]

# a stacked `forward` and `greedy` call costs about as much as this many of its
# Q-rows at 20 hidden units, and a row's weight products grow as H**2 (3 agents
# on a 2-CPU Xeon host: about 26 us a call and 1 us a row, 69 us a row at 256)
CALL_ROWS = 20
# the most Q-rows a Window's stacked call may need
WINDOW_ROWS = 128


class Tti(NamedTuple):
    """What one TTI of a window schedules."""

    rows: list  # per RBG, every beam's action
    budgets: dict  # per UE id given an RBG, its bits (see `_budgets`)
    first_states: tuple  # every agent's first state at the next TTI
    carries: Optional[list]  # per RBG, the (h, c) its actions were picked in; None: no push


def _budgets(paths, bits: list) -> dict:
    """Per UE id, the bits of the RBGs it was given: `paths` holds every beam's
    actions, RBG by RBG, and `bits[b][uid]` is the bits of an RBG of beam b to
    UE uid. Each UE's sum runs from 0.0 beam by beam, RBG by RBG."""
    budgets = {}
    for actions, table in zip(paths, bits):
        for uid in actions:
            budgets[uid] = budgets.get(uid, 0.0) + table[uid]
    return budgets


class Window:
    """Every agent's rollouts over the TTIs of a window, which share one
    geometry (its `mask` and `links`: each member's RBG bits and next state)
    and one set of main weights, and `plan`, each TTI's `Tti`.

    The carry restarts at zero every TTI, so at TTI w of the window agent
    k's Q-rows, carries and actions depend only on its first state (the
    next state of its last action at TTI w - 1, `first_states[k]` at w = 0),
    its own explorations and the weights. So the window rolls each agent
    out, at once, along every path (w, first state) it can take: from
    `first_states[k]` at w = 0 and from each distinct next state of beam k's
    members at later TTIs. The explorations of all its TTIs are
    drawn with one `AgentStack.explorations` call, which draws what one
    call per TTI would, and each RBG is one `forward` and `greedy` over an
    (agent, row) grid of each agent's distinct prefixes of input states
    (a rollout, the greedy actions along one; paths whose states agree so
    far share it). A path's action at an RBG is its exploration pick there,
    or else its rollout's greedy action. Then `_plan` follows the chain:
    each TTI's paths from its first states give its rows, its budgets (the
    geometry's links are fixed for the window) and the next TTI's first
    states, and a TTI from `carried_from` on (None: no TTI) also keeps the
    carries its actions were picked in, the TTIs that push experiences.

    Each TTI after the first adds at most N * S rows to every call, for N
    agents with at most S members each, and saves a call per RBG; so a
    window spans more than one TTI only while those rows cost no more than
    a call (CALL_ROWS at 20 hidden units), and then only as many as fit
    WINDOW_ROWS rows: the grid holds at most N * (1 + (ttis - 1) * S') rows
    for S' distinct next states. For the carries it keeps, at every RBG, the
    carry rows of the paths of its TTIs from `carried_from` on, at most
    rbgs * max(N, WINDOW_ROWS) rows of 2H floats; its plan holds, per TTI,
    rbgs rows of N actions and a budget per scheduled UE, and per pushing TTI
    the rbgs (N, H) carry pairs that its experiences keep. A window of one
    TTI has one path per agent: `_walk` steps it RBG by RBG on an (N, 1)
    grid and returns its plan's one entry, so it keeps no rollouts.
    """

    def __init__(self, stack, geo, first_states, ttis, rbgs, carried_from):
        n, hidden, mask, links = len(first_states), stack.wh.shape[1], geo.mask, geo.links
        feasible = [tuple(table) for table in links]  # each beam's member ids
        self._next_states = [
            {uid: link.next_state for uid, link in table.items()} for table in links
        ]
        # a TTI after the first adds at most a row per agent and member to each
        # call and saves a call
        if ttis > 1 and n * max(map(len, feasible)) * (hidden / 20) ** 2 <= CALL_ROWS:
            starts = [list(dict.fromkeys(states.values())) for states in self._next_states]
            self.ttis = max(1, min(ttis, 1 + (WINDOW_ROWS // n - 1) // max(map(len, starts))))
        else:
            self.ttis = 1
        bits = [{uid: link.bits for uid, link in table.items()} for table in links]
        picks = stack.explorations(feasible, self.ttis * rbgs)
        if self.ttis == 1:
            self.plan = [self._walk(stack, mask, first_states, picks, bits, carried_from == 0)]
        else:
            # per RBG, the carry rows its step started from for the carried paths:
            # (h, c, {(agent, path): row})
            self._carries = None if carried_from is None or carried_from >= self.ttis else []
            self._index = [{state: i for i, state in enumerate(s)} for s in starts]
            self._spread = [len(s) for s in starts]
            self._roll_out(stack, mask, first_states, starts, picks, rbgs, carried_from)
            self.plan = self._plan(first_states, bits, carried_from)

    def _walk(self, stack, mask, states, picks, bits, pushes) -> Tti:
        """The one `Tti` of a one-TTI window: one row per agent, stepped RBG by
        RBG from a zero carry, its picks in; its carries are kept if it pushes."""
        rows, carries = [], [] if pushes else None
        h = c = np.zeros((len(states), 1, stack.wh.shape[1]))
        for explored in picks:
            if pushes:
                carries.append((h[:, 0], c[:, 0]))
            q, (h, c) = stack.forward(np.array(states)[:, None, None], (h, c))
            actions = [action for action, in stack.greedy(q, mask)]
            for k, action in explored or ():
                actions[k] = action
            rows.append(tuple(actions))
            states = tuple(map(dict.__getitem__, self._next_states, actions))
        return Tti(rows, _budgets(zip(*rows), bits), states, carries)

    def _roll_out(self, stack, mask, first_states, starts, explorations, rbgs, carried_from):
        """Every agent's rollouts along all its paths, one grid step per RBG."""
        n = len(first_states)
        # per agent and TTI, its (RBG, action) explorations, which are not in its rollouts
        self._explored = [[[] for _ in range(self.ttis)] for _ in range(n)]
        # per agent, each path's slot: path 0 is (0, first state) and path
        # 1 + (w - 1) * len(starts[k]) + i is (w, starts[k][i])
        self._where = where = []
        self._slots = rollouts = []  # per agent, its rollouts by slot
        counts, x = [], []  # per agent, the paths of each slot and each slot's input state
        for first, s in zip(first_states, starts):
            roots = {first: 0}
            for state in s:
                roots.setdefault(state, len(roots))
            where.append([0] + [roots[state] for _ in range(self.ttis - 1) for state in s])
            counts.append([where[-1].count(j) for j in range(len(roots))])
            rollouts.append([[] for _ in roots])
            x.append(list(roots))
        # the (agent, path) pairs of the carried TTIs
        carried = [
            (k, p) for k in range(n) for p in range(len(where[k])) if self._tti(k, p) >= carried_from
        ] if self._carries is not None else []
        picks = [[[] for _ in range(n)] for _ in range(rbgs)]  # per RBG and agent: (TTI, action)
        for i, pairs in enumerate(explorations):
            w, r = divmod(i, rbgs)
            for k, action in pairs or ():
                picks[r][k].append((w, action))
                self._explored[k][w].append((r, action))
        rows = max(map(len, x))
        h = c = np.zeros((n, rows, stack.wh.shape[1]))
        agents = np.arange(n)[:, None]
        for r in range(rbgs):
            if self._carries is not None:
                kept = {}  # (agent, slot) -> row
                index = {(k, p): kept.setdefault((k, where[k][p]), len(kept)) for k, p in carried}
                agent, slot = zip(*kept)
                self._carries.append((h[agent, slot], c[agent, slot], index))
            grid = np.array([xs + xs[:1] * (rows - len(xs)) for xs in x])
            q, (h, c) = stack.forward(grid[..., None], (h, c))
            sources = []
            for k, (rolls, greedy) in enumerate(zip(rollouts, stack.greedy(q, mask))):
                for roll, action in zip(rolls, greedy):
                    roll.append(action)
                sources.append(picks[r][k] and self._branch(k, r, picks[r][k], counts[k]))
            if r + 1 == rbgs:
                break
            x = [[s[roll[-1]] for roll in rolls] for s, rolls in zip(self._next_states, rollouts)]
            width = max(map(len, x))
            if width != rows or any(sources):
                index = [src or list(range(len(xs))) for src, xs in zip(sources, x)]
                index = np.array([src + [0] * (width - len(src)) for src in index])
                h, c = h[agents, index], c[agents, index]
                rows = width

    def _branch(self, k, r, picks, counts):
        """Move agent k's paths whose exploration at RBG r leads to another
        input state than their rollout's greedy action into rollouts of
        their own; returns each slot's source row if a slot was added, else
        None."""
        rolls, where, spread = self._slots[k], self._where[k], self._spread[k]
        states = self._next_states[k]
        moves = {}  # (slot, next state) -> (an action to it, the paths that take one)
        for w, action in picks:
            state = states[action]
            for p in range(1 + (w - 1) * spread, 1 + w * spread) if w else (0,):
                j = where[p]
                if states[rolls[j][-1]] != state:
                    moves.setdefault((j, state), (action, []))[1].append(p)
        added = []
        for (j, _), (action, paths) in moves.items():
            roll = rolls[j].copy()
            roll[-1] = action
            added.append((roll, paths, j))
            counts[j] -= len(paths)
        sources = None
        for roll, paths, j in added:
            if counts[j]:  # slot j keeps paths: the moved ones take a new row
                sources = sources or list(range(len(rolls)))
                sources.append(j)
                slot = len(rolls)
                rolls.append(roll)
                counts.append(0)
            else:  # every path of slot j moved: the first ones take its row
                slot = j
                rolls[j] = roll
            counts[slot] = len(paths)
            for p in paths:
                where[p] = slot
        return sources

    def _tti(self, k, p) -> int:
        """The TTI of agent k's path p."""
        return 0 if p == 0 else 1 + (p - 1) // self._spread[k]

    def _paths(self, w, first_states) -> list:
        """Per agent, its path at TTI w from its first state."""
        if not w:
            return [0] * len(first_states)
        return [
            1 + (w - 1) * spread + index[state]
            for spread, index, state in zip(self._spread, self._index, first_states)
        ]

    def _plan(self, states, bits, carried_from) -> list:
        """Each TTI's `Tti`, along the chain from the first states `states`
        at TTI 0: a TTI's last actions give the next TTI's first states."""
        plan = []
        for w in range(self.ttis):
            paths, actions = self._paths(w, states), []
            for slots, where, explored, p in zip(self._slots, self._where, self._explored, paths):
                roll = slots[where[p]]
                if explored[w]:
                    roll = list(roll)
                    for r, action in explored[w]:
                        roll[r] = action
                actions.append(roll)
            carries = None
            if self._carries is not None and w >= carried_from:
                carries = []
                for h, c, index in self._carries:
                    rows = [index[path] for path in enumerate(paths)]
                    carries.append((h[rows], c[rows]))
            states = tuple(map(dict.__getitem__, self._next_states, (a[-1] for a in actions)))
            plan.append(Tti(list(zip(*actions)), _budgets(actions, bits), states, carries))
        return plan
