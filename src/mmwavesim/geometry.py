"""Planar positions and the uniform-disk localization uncertainty.

A reported position is known only through a probability density over
the plane. The clustering math needs only its mean: for any density
with mean mu, the expected squared distance to a point c decomposes as

    E||x - c||^2 = ||mu - c||^2 + E||x - mu||^2

where the second term (the spread) does not depend on c. So clustering
by expected distance picks the same centers as clustering the means,
and a report is two points: the reported position and the mean
(`engine.inject_error`). A disk of radius R with uniform area density
f(r, theta) = r / (pi R^2) has spread E[r^2] = R^2 / 2, giving the
closed form used here:

    E||x - c||^2 = ||mu - c||^2 + R^2 / 2.

A Monte Carlo estimator of the disk's expectation is provided as an
independent check of the closed form (`mmwavesim oracle mc-distance`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "Point2D",
    "UniformDisk",
    "sq_distance",
    "expected_sq_distance",
    "uniform_disk_point",
    "mc_expected_sq_distance",
]

class Point2D(NamedTuple):
    """A point in the cell plane, (x, y) in meters."""

    x: float
    y: float


def sq_distance(a: Point2D, b: Point2D) -> float:
    """Squared Euclidean distance in square meters."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


class UniformDisk(NamedTuple):
    """Uniform density over a disk; radius 0 degenerates to an exact point."""

    center: Point2D
    radius: float


def expected_sq_distance(disk: UniformDisk, c: Point2D) -> float:
    """E||x - c||^2 under the disk, in square meters: ||mu - c||^2 + R^2/2."""
    return sq_distance(disk.center, c) + 0.5 * disk.radius * disk.radius


def uniform_disk_point(
    rng: np.random.Generator, radius: float, center: Point2D = Point2D(0.0, 0.0)
) -> Point2D:
    """Area-uniform draw inside a disk: the radius is drawn as R * sqrt(u)
    with u uniform on [0, 1), then the angle, so E[r] = 2R/3 and
    E[r^2] = R^2/2."""
    cx, cy = center
    r = radius * math.sqrt(rng.random())
    theta = rng.random() * 2.0 * math.pi
    return Point2D(cx + r * math.cos(theta), cy + r * math.sin(theta))


def mc_expected_sq_distance(
    disk: UniformDisk, c: Point2D, n_samples: int, rng: np.random.Generator
) -> float:
    """Monte Carlo estimate of E||x - c||^2 under the disk, from
    `n_samples` >= 1 draws; independent of the closed form."""
    r = disk.radius * np.sqrt(rng.random(n_samples))
    theta = rng.random(n_samples) * (2.0 * math.pi)
    xs = disk.center.x + r * np.cos(theta)
    ys = disk.center.y + r * np.sin(theta)
    return float(np.mean((xs - c.x) ** 2 + (ys - c.y) ** 2))
