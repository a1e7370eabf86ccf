"""Seeded Lloyd-style clustering for exact and uncertain positions.

Both variants run the same four-step loop: pick initial centers, assign
every point to the nearest center, recompute each center as the mean of
its members, repeat until the centers stop moving.

Because E||x - c||^2 = ||mu - c||^2 + E||x - mu||^2, where the second
(spread) term does not depend on the candidate center, the uncertain
(expected-distance) variant is the exact loop run on the PDF means
(`engine.inject_error` draws each report as its position and mean): the
spread adds the same constant to the sum of expected squared distances
of every labelling, so it moves no label or center. In particular,
points whose PDFs are symmetric disks centered on the reported location
produce exactly the same labels and centers as exact clustering of
those centers.
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
    # at convergence_epsilon 0 every call runs all its rounds (the stop rule
    # needs movement < 0); a round is about 70 us at the default cell, Lloyd
    # settles 2-200 points in under 20 rounds, and 1000 keeps a call near 0.1 s
    max_iterations: int = ranged(100, lo=1, hi=1000)
    convergence_epsilon: float = ranged(1e-6, lo=0.0)  # squared meters of center movement
    init_strategy: InitStrategy = InitStrategy.FARTHEST_FIRST
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ClusteringResult:
    labels: tuple
    centers: tuple
    iterations: int
    converged: bool


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
) -> ClusteringResult:
    """Alternate assign/update until centers move less than epsilon, or
    for `cfg.max_iterations` rounds.

    `points` is an (N, 2) array: exact positions, or the PDF means of
    uncertain ones. The result is fully determined by (points, cfg,
    initial_centers): the labels of the last assign step, the centers of
    the last update, the number of rounds and whether the stop rule held.
    """
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
    )
