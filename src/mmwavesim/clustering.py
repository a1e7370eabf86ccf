"""Seeded Lloyd-style clustering for exact and uncertain positions.

Both variants run the same four-step loop: pick initial centers, assign
every point to the nearest center, recompute each center as the mean of
its members, repeat until the centers stop moving.

Because E||x - c||^2 = ||mu - c||^2 + spread with a spread term that
does not depend on the candidate center, the uncertain (expected-distance)
variant is the exact loop run on the PDF means with the total spread
added to the objective (`engine.inject_error` draws each report as its
position, mean and spread). In particular, points whose PDFs are
symmetric disks centered on the reported location produce exactly the
same label sequence as exact clustering of those centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .fields import check_fields, ranged
from .geometry import Point2D
from .seeding import make_rng

__all__ = [
    "InitStrategy",
    "ClusteringConfig",
    "ClusteringResult",
    "run_clustering",
]


class InitStrategy(Enum):
    RANDOM_POINTS = "random_points"
    FARTHEST_FIRST = "farthest_first"


@dataclass(frozen=True)
class ClusteringConfig:
    k: int = ranged(lo=1)
    max_iterations: int = ranged(100, lo=1)
    convergence_epsilon: float = ranged(1e-6, lo=0.0)  # squared meters of center movement
    init_strategy: InitStrategy = InitStrategy.FARTHEST_FIRST
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ClusteringResult:
    labels: tuple
    centers: tuple
    objective: float
    iterations: int
    converged: bool
    label_history: tuple  # labels after every assign step
    objective_history: tuple  # objective after every (assign, update) pair


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


def run_clustering(
    points: np.ndarray,
    cfg: ClusteringConfig,
    initial_centers: Optional[Sequence[Point2D]] = None,
    spread: float = 0.0,
) -> ClusteringResult:
    """Alternate assign/update until centers move less than epsilon.

    `points` is an (N, 2) array: exact positions, or the PDF means of
    uncertain ones with their total `spread` (the sum of the spreads
    `engine.inject_error` returns). The result is fully determined by
    (points, cfg, initial_centers, spread). The reported objective is the
    sum over points of the (expected) squared distance to the assigned
    center and is non-increasing across iterations.
    """
    mus = np.asarray(points, dtype=float)
    n = len(mus)
    if initial_centers is not None:
        centers = np.array([(c.x, c.y) for c in initial_centers], dtype=float)
    else:
        centers = _init_centers(mus, cfg, make_rng(cfg.seed))

    labels = np.zeros(n, dtype=int)
    label_history = []
    objective_history = []
    converged = False
    iterations = 0
    objective = float("inf")

    for _ in range(cfg.max_iterations):
        labels = _assign(mus, centers)
        new_centers = _update(mus, labels, cfg.k)
        movement = float(((new_centers - centers) ** 2).sum(axis=1).max())
        centers = new_centers
        objective = float(((mus - centers[labels]) ** 2).sum()) + spread
        iterations += 1
        label_history.append(tuple(int(l) for l in labels))
        objective_history.append(objective)
        if movement < cfg.convergence_epsilon:
            converged = True
            break

    return ClusteringResult(
        labels=tuple(int(l) for l in labels),
        centers=tuple(Point2D(float(x), float(y)) for x, y in centers),
        objective=objective,
        iterations=iterations,
        converged=converged,
        label_history=tuple(label_history),
        objective_history=tuple(objective_history),
    )
