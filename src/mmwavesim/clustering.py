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

import functools
import math
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
    # needs movement < 0); a round is about 7 us at the default cell (6 points,
    # 3 clusters) and 7 ms at 1000 points and 64 clusters, Lloyd settles 2-200
    # points in under 20 rounds, and 1000 keeps a default call near 10 ms
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


def _assign(rows: list, centers: list) -> list:
    """Each row's nearest center by dx * dx + dy * dy; the strict `<`
    keeps the lowest index on ties."""
    labels = []
    for x, y in rows:
        best, label = math.inf, 0
        for j, (cx, cy) in enumerate(centers):
            dx, dy = x - cx, y - cy
            d = dx * dx + dy * dy
            if d < best:
                best, label = d, j
        labels.append(label)
    return labels


def _argmax(values: list) -> int:
    """The index of the first largest value."""
    return values.index(max(values))


def _update(rows: list, labels: list, k: int) -> list:
    """Mean of members per cluster; empty clusters reseed at the worst point.

    A mean is the sum of its members in row order, started from 0.0 (as
    numpy's `mean(axis=0)` sums, so a lone -0.0 gives 0.0), over their
    count. An empty cluster takes the position of the point farthest from
    its own (freshly computed) center, lowest point index on ties. Labels
    are left untouched; the next assign pass claims the point.
    """
    sx, sy, counts = [0.0] * k, [0.0] * k, [0] * k
    for (x, y), j in zip(rows, labels):
        sx[j] += x
        sy[j] += y
        counts[j] += 1
    centers = [(x / m, y / m) if m else None for x, y, m in zip(sx, sy, counts)]
    if 0 in counts:
        own = []
        for (x, y), j in zip(rows, labels):
            cx, cy = centers[j]
            dx, dy = x - cx, y - cy
            own.append(dx * dx + dy * dy)
        for j, m in enumerate(counts):
            if not m:
                idx = _argmax(own)
                centers[j] = rows[idx]
                own[idx] = -1.0  # a point reseeds at most one empty cluster
    return centers


@functools.lru_cache(maxsize=1024)
def _first_index(seed: int, n: int) -> int:
    """The farthest-first init's one random draw, a row index below n, from
    make_rng(seed). Cached: every beam split draws it again from seed 0 for
    its size (at most n_ues <= 1000), while a run's own seed draws it once."""
    return int(make_rng(seed).integers(n))


def _init_centers(rows: list, cfg: ClusteringConfig) -> list:
    n = len(rows)
    if cfg.init_strategy is InitStrategy.RANDOM_POINTS:
        idx = make_rng(cfg.seed).choice(n, size=cfg.k, replace=False)
        return [rows[i] for i in sorted(idx.tolist())]
    # farthest-first: seed one point at random, then greedily take the point
    # farthest from the chosen set (lowest index on ties)
    chosen = [_first_index(cfg.seed, n)]
    dmin = [math.inf] * n  # per point, its squared distance to the chosen set
    while len(chosen) < cfg.k:
        cx, cy = rows[chosen[-1]]
        for i, (x, y) in enumerate(rows):
            dx, dy = x - cx, y - cy
            d = dx * dx + dy * dy
            if d < dmin[i]:
                dmin[i] = d
        dmin[chosen[-1]] = -1.0
        chosen.append(_argmax(dmin))
    return [rows[i] for i in chosen]


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
    The rounds run on Python floats: at the 2 to 48 points of a cell, a
    numpy call costs more than its arithmetic.
    """
    rows = np.asarray(points, dtype=float).tolist()
    if initial_centers is not None:
        centers = [(float(c.x), float(c.y)) for c in initial_centers]
    else:
        centers = _init_centers(rows, cfg)

    converged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        labels = _assign(rows, centers)
        new_centers = _update(rows, labels, cfg.k)
        movement = 0.0
        for (x, y), (cx, cy) in zip(new_centers, centers):
            dx, dy = x - cx, y - cy
            movement = max(movement, dx * dx + dy * dy)
        centers = new_centers
        iterations += 1
        if movement < cfg.convergence_epsilon:
            converged = True
            break

    return ClusteringResult(
        labels=tuple(labels),
        centers=tuple(Point2D(x, y) for x, y in centers),
        iterations=iterations,
        converged=converged,
    )
