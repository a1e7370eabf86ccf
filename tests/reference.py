"""Reference models that the simulator does not run but the tests check it
against: the explicit ULA response vector behind the closed-form beam
gain; the general uncertainty-PDF model (a uniform disk or weighted
samples, wrapped in an `UncertainPoint`) with its mean, expected squared
distance, `moments`, per-point sampling and rigid translation, and
`report_pdf`, the report drawn as such a PDF, which `engine.inject_error`
must match bit for bit as two points; `numpy_clustering`, the
`run_clustering` loop in numpy that the scalar one must match bit for
bit, and on its `_assign` and `_update` the point-list forms of the
k-means and UK-means assign/update steps; the clustering objective and
per-iteration history that `run_clustering` does not keep; the
greedy and epsilon-greedy decisions of an `AgentStack` at one RBG, on one
Q-row per agent, with `ScalarDrawSource`, the draws it makes one at a
time, and `RawStub`, a stream of chosen raw draws; `window_paths` and
`window_carries`, the actions and carries of any path of a `window.Window`
looked up in its rollouts, or of a one-TTI window read from its one plan
entry; and `budgets`, the scheduling stage's bit budgets summed one
UE at a time; `LoopQueue`, a packet queue served one packet at a time.
`xy` turns a `Point2D` list into the (N, 2) array that clustering, beam
forming and coverage take, and `next_draws` compares two places in a
random stream."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from mmwavesim import geometry
from mmwavesim.agent import BLOCK, AgentStack
from mmwavesim.beams import AntennaConfig
from mmwavesim.clustering import (
    ClusteringConfig,
    ClusteringResult,
    InitStrategy,
    run_clustering,
)
from mmwavesim.errors import ConfigError
from mmwavesim.geometry import Point2D, UniformDisk, sq_distance, uniform_disk_point
from mmwavesim.seeding import make_rng
from mmwavesim.traffic import PacketQueue


@dataclass(frozen=True)
class SampleBased:
    """Discrete density over weighted sample points.

    Expresses informative or asymmetric uncertainty that a symmetric
    disk cannot (e.g. a two-mode ghost/true localization hypothesis).
    The weights are nonnegative and sum to 1.
    """

    samples: tuple
    weights: tuple


UncertaintyPdf = Union[UniformDisk, SampleBased]


@dataclass(frozen=True)
class UncertainPoint:
    """A position known only through its uncertainty PDF."""

    pdf: UncertaintyPdf


def expected_position(p: UncertainPoint) -> Point2D:
    """Mean of the position PDF.

    Exactly the disk center for UniformDisk (symmetry), the weighted
    sample mean for SampleBased.
    """
    pdf = p.pdf
    if isinstance(pdf, UniformDisk):
        return pdf.center
    x = sum(w * s.x for s, w in zip(pdf.samples, pdf.weights))
    y = sum(w * s.y for s, w in zip(pdf.samples, pdf.weights))
    return Point2D(x, y)


def expected_sq_distance(p: UncertainPoint, c: Point2D) -> float:
    """E||x - c||^2 under the position PDF, in square meters.

    UniformDisk uses the closed form of `geometry.expected_sq_distance`;
    SampleBased is the weighted sum of squared distances.
    """
    pdf = p.pdf
    if isinstance(pdf, UniformDisk):
        return geometry.expected_sq_distance(pdf, c)
    return sum(w * sq_distance(s, c) for s, w in zip(pdf.samples, pdf.weights))


def mc_expected_sq_distance(
    p: UncertainPoint, c: Point2D, n_samples: int, rng: np.random.Generator
) -> float:
    """`geometry.mc_expected_sq_distance` of a `UniformDisk` PDF."""
    return geometry.mc_expected_sq_distance(p.pdf, c, n_samples, rng)


def moments(points: Sequence[UncertainPoint]) -> tuple:
    """The PDF means as an (N, 2) array and the total spread, the sum of
    E||x - mu||^2: all that expected-distance clustering needs of the PDFs."""
    mus = [expected_position(p) for p in points]
    spread = sum(expected_sq_distance(p, mu) for p, mu in zip(points, mus))
    return np.array([(mu.x, mu.y) for mu in mus], dtype=float), spread


def report_pdf(
    true_position: Point2D,
    error_rmse_m: float,
    rng: np.random.Generator,
    informative: bool = False,
) -> UncertainPoint:
    """The report of `engine.inject_error` as a PDF object, from the same
    draws: the disk of radius rmse * sqrt(2) around the reported center,
    or the two hypotheses {reported, reported - g} at weight 1/2 each,
    the reported location first."""
    r_err = error_rmse_m * math.sqrt(2.0)
    if not informative:
        center = uniform_disk_point(rng, r_err, true_position)
        return UncertainPoint(pdf=UniformDisk(center, r_err))
    ghosted = rng.random() < 0.5
    theta = rng.random() * 2.0 * math.pi
    gx = r_err * math.cos(theta)
    gy = r_err * math.sin(theta)
    if ghosted:
        rep = Point2D(true_position.x + gx, true_position.y + gy)
    else:
        rep = Point2D(true_position.x, true_position.y)
    alt = Point2D(rep.x - gx, rep.y - gy)
    return UncertainPoint(pdf=SampleBased((rep, alt), (0.5, 0.5)))


def reported_center(p: UncertainPoint) -> Point2D:
    """The raw reported location inside a `report_pdf` PDF: the disk's
    center, or the first sample."""
    if isinstance(p.pdf, UniformDisk):
        return p.pdf.center
    return p.pdf.samples[0]


def xy(points: Sequence[Point2D]) -> np.ndarray:
    """The (N, 2) array of a `Point2D` list."""
    return np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)


def array_response(angle: float, cfg: AntennaConfig) -> np.ndarray:
    """Unit-norm ULA response vector toward `angle` (radians)."""
    phase = 2.0 * math.pi * cfg.element_spacing_over_wavelength * math.sin(angle)
    m = np.arange(cfg.n_antennas)
    return np.exp(1j * phase * m) / math.sqrt(cfg.n_antennas)


def sample_position(p: UncertainPoint, rng: np.random.Generator) -> Point2D:
    """One draw from the position PDF (area-uniform for a disk)."""
    pdf = p.pdf
    if isinstance(pdf, UniformDisk):
        return uniform_disk_point(rng, pdf.radius, pdf.center)
    cum = np.cumsum(pdf.weights)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    idx = min(idx, len(pdf.samples) - 1)
    return pdf.samples[idx]


def translate(p: UncertainPoint, dx: float, dy: float) -> UncertainPoint:
    """The same PDF shifted rigidly by (dx, dy)."""
    pdf = p.pdf
    if isinstance(pdf, UniformDisk):
        moved = UniformDisk(Point2D(pdf.center.x + dx, pdf.center.y + dy), pdf.radius)
    else:
        moved = SampleBased(
            tuple(Point2D(s.x + dx, s.y + dy) for s in pdf.samples), pdf.weights
        )
    return UncertainPoint(pdf=moved)


def _assign(mus: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # argmin of squared distance; np.argmin keeps the lowest index on ties
    d2 = ((mus[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _update(mus: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Mean of members per cluster; empty clusters reseed at the worst point.

    An empty cluster takes the position of the point farthest from its
    own (freshly computed) center, lowest point index on ties. Labels
    are left untouched; the next assign pass claims the point.
    """
    centers = np.empty((k, 2), dtype=float)
    empty = []
    for j in range(k):
        member = labels == j
        if member.any():
            centers[j] = mus[member].mean(axis=0)
        else:
            empty.append(j)
    if empty:
        own = ((mus - centers[labels]) ** 2).sum(axis=1)
        for j in empty:
            idx = int(own.argmax())
            centers[j] = mus[idx]
            own[idx] = -1.0  # a point reseeds at most one empty cluster
    return centers


def _init_centers(
    mus: np.ndarray, cfg: ClusteringConfig, rng: np.random.Generator
) -> np.ndarray:
    n = mus.shape[0]
    if cfg.init_strategy is InitStrategy.RANDOM_POINTS:
        idx = rng.choice(n, size=cfg.k, replace=False)
        return mus[np.sort(idx)].copy()
    # farthest-first: seed one point at random, then greedily take the point
    # farthest from the chosen set (lowest index on ties)
    chosen = [int(rng.integers(n))]
    dmin = ((mus - mus[chosen[0]]) ** 2).sum(axis=1)
    dmin[chosen[0]] = -1.0
    while len(chosen) < cfg.k:
        nxt = int(dmin.argmax())
        chosen.append(nxt)
        d_new = ((mus - mus[nxt]) ** 2).sum(axis=1)
        dmin = np.minimum(dmin, d_new)
        dmin[nxt] = -1.0
    return mus[chosen].copy()


def numpy_clustering(
    points: np.ndarray,
    cfg: ClusteringConfig,
    initial_centers: Optional[Sequence[Point2D]] = None,
) -> ClusteringResult:
    """`clustering.run_clustering` in numpy, each round's assign, update and
    movement as array operations: the oracle of its scalar rounds. Its
    `settled` compares arrays, so it also holds where the scalar call's
    list-typed init rows make that call's comparison false."""
    mus = np.asarray(points, dtype=float)
    n = len(mus)
    if initial_centers is not None:
        centers = np.array([(c.x, c.y) for c in initial_centers], dtype=float)
    else:
        centers = _init_centers(mus, cfg, make_rng(cfg.seed))

    labels = np.zeros(n, dtype=int)
    converged = False
    iterations = 0

    for _ in range(cfg.max_iterations):
        labels = _assign(mus, centers)
        new_centers = _update(mus, labels, cfg.k)
        settled = bool((new_centers == centers).all())
        movement = float(((new_centers - centers) ** 2).sum(axis=1).max())
        centers = new_centers
        iterations += 1
        if movement < cfg.convergence_epsilon:
            converged = True
            break

    return ClusteringResult(
        labels=tuple(int(l) for l in labels),
        centers=tuple(Point2D(float(x), float(y)) for x, y in centers),
        iterations=iterations,
        converged=converged,
        settled=settled,
    )


def kmeans_assign(points: Sequence[Point2D], centers: Sequence[Point2D]):
    """Nearest-center labels; ties break to the lowest cluster index."""
    if not len(points) or not len(centers):
        raise ConfigError("points and centers must be non-empty")
    return [int(l) for l in _assign(xy(points), xy(centers))]


def kmeans_update(points: Sequence[Point2D], labels, k: int):
    """Per-cluster arithmetic means, with the empty-cluster reseed rule."""
    centers = _update(xy(points), np.asarray(labels, dtype=int), k)
    return [Point2D(float(x), float(y)) for x, y in centers]


def ukmeans_assign(upoints: Sequence[UncertainPoint], centers: Sequence[Point2D]):
    """Labels minimizing the expected squared distance to each center: by
    the mean decomposition, the nearest-center rule on the PDF means."""
    return kmeans_assign([expected_position(p) for p in upoints], centers)


def ukmeans_update(upoints: Sequence[UncertainPoint], labels, k: int):
    """Per-cluster means of the expected positions."""
    return kmeans_update([expected_position(p) for p in upoints], labels, k)


def objective(points: np.ndarray, result: ClusteringResult) -> float:
    """The sum over points of the squared distance to the assigned center
    of `result`. Of PDF means, adding the `moments` spread gives the sum
    of expected squared distances."""
    mus = np.asarray(points, dtype=float)
    centers = xy(result.centers)
    return float(((mus - centers[np.asarray(result.labels, dtype=int)]) ** 2).sum())


def history(
    points: np.ndarray,
    cfg: ClusteringConfig,
    initial_centers: Optional[Sequence[Point2D]] = None,
) -> list:
    """The (labels, objective) pair after every (assign, update) round of
    `run_clustering(points, cfg, initial_centers)`, from reruns that stop
    after 1, 2, ... of its rounds (a rerun follows the same path, and
    stops by the rule only where the full call does)."""
    rounds = run_clustering(points, cfg, initial_centers).iterations
    out = []
    for m in range(1, rounds + 1):
        res = run_clustering(points, replace(cfg, max_iterations=m), initial_centers)
        out.append((res.labels, objective(points, res)))
    return out


def with_picks(actions: Sequence[int], picks) -> list:
    """`actions` with the (agent, action) pairs of one RBG of
    `AgentStack.explorations` put in."""
    explored = dict(picks or ())
    return [explored.get(k, a) for k, a in enumerate(actions)]


def greedy(stack: AgentStack, q: np.ndarray, mask: np.ndarray) -> list:
    """Every agent's greedy action on its one Q-row q[k] of q (N, A)."""
    return [action for action, in stack.greedy(q[:, None], mask)]


def decide(stack: AgentStack, q: np.ndarray, mask: np.ndarray) -> list:
    """Every agent's epsilon-greedy action at one RBG on its Q-row q[k] of q
    (N, A), as `select_action` draws it."""
    feasible = [tuple(np.flatnonzero(row).tolist()) for row in mask]
    (picks,) = stack.explorations(feasible, 1)
    return with_picks(greedy(stack, q, mask), picks)


def next_draws(source) -> list:
    """The next 128 `integers(1000)` of a `DrawSource` or a `Generator`: two
    sources at the same place in one stream (and its unread half) give equal
    lists, and one draw more or less on either side makes them differ."""
    return [int(source.integers(1000)) for _ in range(128)]


class ScalarDrawSource:
    """`Generator.random()` and `integers(n)`, 1 <= n < 2**32, one raw draw of a
    bit generator at a time, read in blocks of `agent.BLOCK`: a double is the
    top 53 bits of a raw draw times 2**-53, an integer numpy's Lemire method on
    32-bit halves, the high one kept for the next integer. The oracle of
    `DrawSource.explore`, with `_epsilon_greedy`."""

    def __init__(self, bit_generator):
        self.bit_generator = bit_generator
        self._half = None
        self._raws = []  # the raw draws not yet read, the next one last

    def _raw(self) -> int:
        if not self._raws:
            self._raws = self.bit_generator.random_raw(BLOCK).tolist()[::-1]
        return self._raws.pop()

    def random(self) -> float:
        return (self._raw() >> 11) * 2.0**-53

    def _uint32(self) -> int:
        half, self._half = self._half, None
        if half is None:
            raw = self._raw()
            half, self._half = raw & 0xFFFFFFFF, raw >> 32
        return half

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        m = self._uint32() * n
        while m & 0xFFFFFFFF < (2**32 - n) % n:
            m = self._uint32() * n
        return m >> 32


class RawStub:
    """A stand-in bit generator whose raw draws are `values` in order, then
    those of PCG64(0): a stream that can hold the values at an exploration
    bound."""

    def __init__(self, values: Sequence[int]):
        self.values = list(values)
        self.read = 0
        self.rest = np.random.PCG64(0)

    def random_raw(self, size: int) -> np.ndarray:
        out = self.values[self.read : self.read + size]
        self.read += size
        rest = self.rest.random_raw(size - len(out)).tolist()
        return np.array(out + rest, dtype=np.uint64)


def _window_path(window, w: int, k: int, state: float) -> int:
    """Agent k's path at TTI w of `window` from the first state `state`."""
    return 1 + (w - 1) * window._spread[k] + window._index[k][state] if w else 0


def window_paths(window, w: int, first_states: Sequence[float]) -> list:
    """Per agent, its actions at the RBGs of TTI w of `window` from its first
    state: its path's rollout, with the path's explorations put in. The
    window's plan holds these for the chain of first states it follows; this
    reads any path, realized or not. A window of one TTI has one path per
    agent, from the window's first states, and keeps only its plan entry."""
    if window.ttis == 1:
        return list(zip(*window.plan[0].rows))
    out = []
    for k, state in enumerate(first_states):
        roll = window._slots[k][window._where[k][_window_path(window, w, k, state)]]
        if window._explored[k][w]:
            roll = list(roll)
            for r, action in window._explored[k][w]:
                roll[r] = action
        out.append(roll)
    return out


def window_carries(window, w: int, first_states: Sequence[float]) -> list:
    """Per RBG of TTI w of `window` (at least its `carried_from`), the (h, c)
    carry each agent's action there was picked in from its first state, two
    (N, H) arrays."""
    if window.ttis == 1:
        return window.plan[0].carries
    paths = [(k, _window_path(window, w, k, state)) for k, state in enumerate(first_states)]
    out = []
    for h, c, index in window._carries:
        rows = [index[path] for path in paths]
        out.append((h[rows], c[rows]))
    return out


def budgets(rows: Sequence[Sequence[int]], links: Sequence[dict]) -> dict:
    """Per UE id, the bits of its RBGs, one UE at a time: from 0.0, for each
    beam b in turn and each RBG in turn whose beam-b action is the UE, add
    `links[b][uid].bits`."""
    out = {}
    for uid in {action for actions in rows for action in actions}:
        total = 0.0
        for b, table in enumerate(links):
            for actions in rows:
                if actions[b] == uid:
                    total += table[uid].bits
        out[uid] = total
    return out


class LoopQueue(PacketQueue):
    """`traffic.PacketQueue` serving one packet at a time: while a packet is
    queued and the remaining budget covers its bits, subtract them and take
    it. The oracle of the counted `serve`."""

    def serve(self, budget_bits: float, now: int) -> tuple:
        delays = []
        remaining = budget_bits
        while self._arrival_ttis and self.packet_bits <= remaining:
            remaining -= self.packet_bits
            delays.append(now - self._arrival_ttis.popleft())
        self.delivered_delay_sum += sum(delays)
        self.delivered_packets += len(delays)
        return len(delays), sum(delays)
