"""Directional beams, array gains, link SINR and coverage metrics.

The base station carries a uniform linear array whose response toward
angle phi has element m equal to (1/sqrt(Nt)) exp(j m 2 pi (d/lambda)
sin phi). Conjugate beamforming onto a single line-of-sight direction
gives the power gain

    G(b, u) = Nt * |a(b)^H a(u)|^2 = sin(Nt h)^2 / (Nt sin(h)^2),
    h = pi (d/lambda) (sin b - sin u),

the Fejer kernel pattern: G = Nt at perfect alignment, first null at
|(d/lambda)(sin b - sin u)| = 1/Nt. The closed form is what the
simulator evaluates; tests check it against the explicit inner product
of response vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .clustering import ClusteringConfig, InitStrategy, run_clustering
from .errors import ConfigError
from .fields import check_fields, ranged

__all__ = [
    "DB_LIMIT",
    "AntennaConfig",
    "Beam",
    "beam_gain",
    "form_beams",
    "coverage_rate",
    "compute_sinr",
    "sinr_to_cqi",
    "rbg_rate",
]

SPEED_OF_LIGHT = 299_792_458.0

# cqi k (k >= 1) requires sinr_db >= -6.7 + 1.8 (k - 1); below the first
# entry the report is cqi 0
DEFAULT_CQI_THRESHOLDS_DB = tuple(-6.7 + 1.8 * k for k in range(15))

# bound of every dB/dBm config value, so that 10 ** (x / 10) stays finite
DB_LIMIT = 300.0

# splits an over-full cluster in two (see `form_beams`)
_SPLIT_CLUSTERING = ClusteringConfig(k=2, seed=0, init_strategy=InitStrategy.FARTHEST_FIRST)


@dataclass(frozen=True)
class AntennaConfig:
    # four times the default array; the gain evaluates n_antennas as a float
    n_antennas: int = ranged(1024, lo=1, hi=4096)
    # far past any array (about 0.5); the gain's phase, up to n_antennas * 2 pi
    # times this, must stay finite for math.sin, which it does up to about 7e303
    element_spacing_over_wavelength: float = ranged(0.5, lo=0.0, hi=1e6, closed=False)
    # 1 MHz to 1 THz: the free-space path loss stays finite from 1 mm to 1000 km
    carrier_frequency_hz: float = ranged(28e9, lo=1e6, hi=1e12)
    tx_power_dbm: float = ranged(30.0, lo=-DB_LIMIT, hi=DB_LIMIT)
    noise_power_dbm: float = ranged(-94.0, lo=-DB_LIMIT, hi=DB_LIMIT)
    # open above: the bandwidth rule below keeps the RBG bandwidth finite
    subcarrier_spacing_hz: float = ranged(120e3, lo=0.0, closed=False)
    # an NR carrier has at most 275 RBs; the bandwidth multiplies it as a float
    rbs_per_rbg: int = ranged(2, lo=1, hi=275)

    def __post_init__(self):
        check_fields(self)
        # an infinite bandwidth times log2(1 + SINR) = 0 would be a nan RBG rate
        if not math.isfinite(self.rbg_bandwidth_hz):
            raise ConfigError(
                "the RBG bandwidth 12 * subcarrier_spacing_hz * rbs_per_rbg must be finite; "
                f"they give {self.rbg_bandwidth_hz:g}",
                ("subcarrier_spacing_hz", "rbs_per_rbg"),
            )

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def rbg_bandwidth_hz(self) -> float:
        """12 subcarriers per RB times RBs per group."""
        return 12.0 * self.subcarrier_spacing_hz * self.rbs_per_rbg


class Beam(NamedTuple):
    boresight: float  # radians from the gNB
    width: float  # radians, full angular sector served
    members: tuple  # UE ids


def _wrap_angle(a: float) -> float:
    """Wrap to [-pi, pi]."""
    return math.remainder(a, 2.0 * math.pi)


def beam_gain(boresight: float, ue_angle: float, cfg: AntennaConfig) -> float:
    """Linear power gain of a beam pointed at `boresight` toward `ue_angle`.

    Evaluates the closed-form Fejer pattern sin(Nt h)^2 / (Nt sin(h)^2)
    with h = pi (d/lambda)(sin boresight - sin ue_angle); the limit Nt
    is taken at h = k pi. Value lies in [0, Nt].
    """
    n = cfg.n_antennas
    psi = cfg.element_spacing_over_wavelength * (math.sin(boresight) - math.sin(ue_angle))
    h = math.pi * psi
    s = math.sin(h)
    if abs(s) < 1e-12:
        c = math.cos(n * h) / math.cos(h)
        return n * c * c
    r = math.sin(n * h) / s
    return (r * r) / n


def _circular_range(angles) -> float:
    """Smallest arc containing all of two or more angles in [-pi, pi]: the
    full turn less the largest gap between neighbours, the wrap-around gap
    included."""
    a = sorted(angles)
    gap = max(hi - lo for lo, hi in zip(a, a[1:]))
    return 2.0 * math.pi - max(gap, 2.0 * math.pi - (a[-1] - a[0]))


class _Cluster(NamedTuple):
    center: tuple  # (x, y)
    rows: list  # the members' rows of the points array, which are their UE ids


def _group(centers, labels, rows) -> list:
    """One `_Cluster` per center with the rows labelled with its index; a
    center without members (emptied by a final reseed) gets none."""
    clusters = []
    for j, c in enumerate(centers):
        member = [rows[i] for i, l in enumerate(labels) if l == j]
        if member:
            clusters.append(_Cluster(c, member))
    return clusters


def form_beams(
    centers: Sequence[tuple],
    width: float,
    n_beams: int,
    points: np.ndarray,
    labels,
) -> list:
    """Beams from the gNB (at the origin) pointed at the cluster centroids,
    the (x, y) pairs `centers`.

    `points` is the (N, 2) array that was clustered, row i being UE i,
    and `labels` its cluster indices; beams on the centers alone take
    `points` = the centers and `labels` = range(k). When `n_beams`
    differs from the cluster count the set is adjusted deterministically:
    too few beams merge the two angularly closest clusters
    (member-weighted centroid); too many split the cluster with the
    widest angular spread of members by re-clustering it with k=2. Once
    every remaining cluster is a single point, extra beams repeat
    existing boresights in index order.
    """
    clusters = _group(centers, labels, range(len(points)))

    if len(clusters) < n_beams:  # the splits read each row's angle from the gNB
        angles = [math.atan2(y, x) for x, y in points.tolist()]
    unsplittable = set()
    while len(clusters) < n_beams:
        candidates = [
            (idx, cl)
            for idx, cl in enumerate(clusters)
            if len(cl.rows) >= 2 and id(cl) not in unsplittable
        ]
        if not candidates:
            break
        spreads = [_circular_range([angles[i] for i in cl.rows]) for _, cl in candidates]
        pick = spreads.index(max(spreads))  # the first widest, as np.argmax
        idx, cl = candidates[pick]
        sub = run_clustering(points[cl.rows], _SPLIT_CLUSTERING)
        halves = _group(sub.centers, sub.labels, cl.rows)
        if len(halves) < 2:  # coincident points cannot be separated
            unsplittable.add(id(cl))
            continue
        clusters[idx : idx + 1] = halves

    while len(clusters) > n_beams:
        bores = [math.atan2(y, x) for (x, y), _ in clusters]
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                gap = abs(_wrap_angle(bores[i] - bores[j]))
                if best is None or gap < best[0]:
                    best = (gap, i, j)
        _, i, j = best
        ((ax, ay), a_rows), ((bx, by), b_rows) = clusters[i], clusters[j]
        wa, wb = len(a_rows), len(b_rows)
        merged_center = ((wa * ax + wb * bx) / (wa + wb), (wa * ay + wb * by) / (wa + wb))
        clusters[i] = _Cluster(merged_center, a_rows + b_rows)
        del clusters[j]

    beams = [Beam(math.atan2(y, x), width, tuple(rows)) for (x, y), rows in clusters]
    base = len(beams)
    while len(beams) < n_beams:  # a repeat is the same immutable Beam
        beams.append(beams[len(beams) % base])
    return beams


def coverage_rate(
    beams: Sequence[Beam],
    true_positions: np.ndarray,
    cell_radius: float,
) -> float:
    """Fraction of the UEs at the (N, 2) `true_positions` within
    `cell_radius` of the gNB and +/- width/2 of some beam."""
    covered = 0
    r2 = cell_radius * cell_radius
    for x, y in true_positions.tolist():
        if x * x + y * y > r2:
            continue
        ang = math.atan2(y, x)
        if any(abs(_wrap_angle(ang - b.boresight)) <= b.width / 2.0 for b in beams):
            covered += 1
    return covered / len(true_positions)


def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _free_space_pathloss(distance_m: float, cfg: AntennaConfig) -> float:
    lam = cfg.wavelength_m
    a = lam / (4.0 * math.pi * distance_m)
    return a * a


def compute_sinr(
    ue_angle: float,
    ue_distance: float,
    serving_beam: Beam,
    interfering_beams: Sequence[Beam],
    cfg: AntennaConfig,
) -> float:
    """Downlink SINR in dB for a UE at (angle, distance) from the gNB.

    Signal and interference both traverse free-space path loss from the
    same site; intra-beam interference is zero by OFDMA orthogonality,
    so only other beams contribute.
    """
    ptx = _dbm_to_watts(cfg.tx_power_dbm)
    pl = _free_space_pathloss(ue_distance, cfg)
    signal = ptx * beam_gain(serving_beam.boresight, ue_angle, cfg) * pl
    interference = sum(
        ptx * beam_gain(b.boresight, ue_angle, cfg) * pl for b in interfering_beams
    )
    noise = _dbm_to_watts(cfg.noise_power_dbm)
    return 10.0 * math.log10(signal / (noise + interference))


def sinr_to_cqi(sinr_db: float) -> int:
    """Quantize SINR with the monotone 16-level table (0 = below the table)."""
    cqi = 0
    for th in DEFAULT_CQI_THRESHOLDS_DB:
        if sinr_db >= th:
            cqi += 1
        else:
            break
    return cqi


def rbg_rate(sinr_db: float, cfg: AntennaConfig) -> float:
    """Shannon rate of one resource-block group in bits/second."""
    sinr = 10.0 ** (sinr_db / 10.0)
    return cfg.rbg_bandwidth_hz * math.log2(1.0 + sinr)

