"""Planar positions with localization-uncertainty PDFs.

An uncertain position is a probability density over the plane. The
clustering math only ever needs two of its moments: the mean position
and the expected squared distance to an arbitrary point. For any
density with mean mu the latter decomposes as

    E||x - c||^2 = ||mu - c||^2 + E||x - mu||^2

where the second term (the spread) does not depend on c. A disk of
radius R with uniform area density f(r, theta) = r / (pi R^2) has
spread E[r^2] = R^2 / 2, giving the closed form used here:

    E||x - c||^2 = ||mu - c||^2 + R^2 / 2.

A Monte Carlo estimator of the disk's expectation is provided as an
independent check of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Point2D",
    "UniformDisk",
    "SampleBased",
    "UncertaintyPdf",
    "UncertainPoint",
    "sq_distance",
    "expected_position",
    "expected_sq_distance",
    "moments",
    "uniform_disk_point",
    "mc_expected_sq_distance",
]

@dataclass(frozen=True)
class Point2D:
    """A point in the cell plane, coordinates in meters."""

    x: float
    y: float


def sq_distance(a: Point2D, b: Point2D) -> float:
    """Squared Euclidean distance in square meters."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


@dataclass(frozen=True)
class UniformDisk:
    """Uniform density over a disk; radius 0 degenerates to an exact point."""

    center: Point2D
    radius: float


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

    UniformDisk uses the closed form ||mu - c||^2 + R^2/2; SampleBased
    is the weighted sum of squared distances.
    """
    pdf = p.pdf
    if isinstance(pdf, UniformDisk):
        return sq_distance(pdf.center, c) + 0.5 * pdf.radius * pdf.radius
    return sum(w * sq_distance(s, c) for s, w in zip(pdf.samples, pdf.weights))


def moments(points: Sequence[UncertainPoint]) -> tuple:
    """The PDF means as an (N, 2) array and the total spread, the sum of
    E||x - mu||^2: all that expected-distance clustering needs of the PDFs."""
    mus = [expected_position(p) for p in points]
    spread = sum(expected_sq_distance(p, mu) for p, mu in zip(points, mus))
    return np.array([(mu.x, mu.y) for mu in mus], dtype=float), spread


def uniform_disk_point(
    rng: np.random.Generator, radius: float, center: Point2D = Point2D(0.0, 0.0)
) -> Point2D:
    """Area-uniform draw inside a disk: the radius is drawn as R * sqrt(u)
    with u uniform on [0, 1), then the angle, so E[r] = 2R/3 and
    E[r^2] = R^2/2."""
    r = radius * math.sqrt(rng.random())
    theta = rng.random() * 2.0 * math.pi
    return Point2D(center.x + r * math.cos(theta), center.y + r * math.sin(theta))


def mc_expected_sq_distance(
    p: UncertainPoint, c: Point2D, n_samples: int, rng: np.random.Generator
) -> float:
    """Monte Carlo estimate of E||x - c||^2 under a `UniformDisk` PDF, from
    `n_samples` >= 1 draws; independent of the closed form."""
    pdf = p.pdf
    r = pdf.radius * np.sqrt(rng.random(n_samples))
    theta = rng.random(n_samples) * (2.0 * math.pi)
    xs = pdf.center.x + r * np.cos(theta)
    ys = pdf.center.y + r * np.sin(theta)
    return float(np.mean((xs - c.x) ** 2 + (ys - c.y) ** 2))
