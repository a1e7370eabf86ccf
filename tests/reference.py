"""Reference models that the simulator does not run but the tests check it
against: the explicit ULA response vector behind the closed-form beam
gain, per-point PDF sampling and rigid translation, the point-list forms
of the k-means and UK-means assign/update steps, and the composed
epsilon-greedy decision of an `AgentStack`. `xy` turns a `Point2D` list
into the (N, 2) array that clustering, beam forming and coverage take."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from mmwavesim.agent import AgentStack
from mmwavesim.beams import AntennaConfig
from mmwavesim.clustering import _assign, _update
from mmwavesim.errors import ConfigError
from mmwavesim.geometry import (
    Point2D,
    SampleBased,
    UncertainPoint,
    UniformDisk,
    expected_position,
    uniform_disk_point,
)


def xy(points: Sequence[Point2D]) -> np.ndarray:
    """The (N, 2) array of a `Point2D` list."""
    return np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)


def array_response(angle: float, cfg: AntennaConfig) -> np.ndarray:
    """Unit-norm ULA response vector toward `angle` (radians)."""
    phase = 2.0 * math.pi * cfg.element_spacing_over_wavelength * math.sin(angle)
    m = np.arange(cfg.n_elements)
    return np.exp(1j * phase * m) / math.sqrt(cfg.n_elements)


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


def decide(stack: AgentStack, q: np.ndarray, mask: np.ndarray) -> list:
    """Every agent's epsilon-greedy action, as `select_action` draws it."""
    feasible = [tuple(np.flatnonzero(row).tolist()) for row in mask]
    return stack.explore(stack.greedy(q, mask), feasible)
