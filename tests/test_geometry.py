import math

import numpy as np
import pytest

from mmwavesim.geometry import Point2D, UniformDisk, sq_distance
from mmwavesim.seeding import make_rng
from reference import (
    SampleBased,
    UncertainPoint,
    expected_position,
    expected_sq_distance,
    mc_expected_sq_distance,
    sample_position,
    translate,
)


def disk(x, y, r):
    return UncertainPoint(UniformDisk(Point2D(x, y), r))


class TestExpectedPosition:
    def test_uniform_disk_is_center(self):
        assert expected_position(disk(3, 4, 2)) == Point2D(3, 4)

    def test_sample_based_weighted_mean(self):
        p = UncertainPoint(SampleBased((Point2D(0, 0), Point2D(10, 0)), (0.5, 0.5)))
        assert expected_position(p) == Point2D(5, 0)

    def test_zero_radius_degenerates(self):
        assert expected_position(disk(-1, 7, 0)) == Point2D(-1, 7)


class TestExpectedSqDistance:
    def test_disk_closed_form_vs_monte_carlo(self):
        p = disk(0, 0, 2)
        closed = expected_sq_distance(p, Point2D(3, 4))
        assert closed == 27.0
        mc = mc_expected_sq_distance(p, Point2D(3, 4), 1_000_000, make_rng(0))
        assert abs(closed - mc) / closed < 0.01

    def test_zero_radius_is_plain_distance(self):
        assert expected_sq_distance(disk(0, 0, 0), Point2D(3, 4)) == 25.0

    def test_sample_based(self):
        p = UncertainPoint(SampleBased((Point2D(0, 0), Point2D(10, 0)), (0.5, 0.5)))
        assert expected_sq_distance(p, Point2D(0, 0)) == 50.0

    def test_closed_form_vs_oracle_random_triples(self):
        # smaller-N version of the acceptance run: 20 random (mu, R, c)
        rng = make_rng(11)
        for _ in range(20):
            mx, my, cx, cy = rng.uniform(-100, 100, size=4)
            r = rng.uniform(0, 30)
            p = disk(mx, my, r)
            c = Point2D(cx, cy)
            closed = expected_sq_distance(p, c)
            mc = mc_expected_sq_distance(p, c, 200_000, rng)
            assert abs(closed - mc) / closed < 0.01

    def test_shift_invariance(self):
        rng = make_rng(3)
        for _ in range(50):
            mx, my, cx, cy, vx, vy = rng.uniform(-50, 50, size=6)
            r = rng.uniform(0, 20)
            p = disk(mx, my, r)
            c = Point2D(cx, cy)
            base = expected_sq_distance(p, c)
            shifted = expected_sq_distance(translate(p, vx, vy), Point2D(cx + vx, cy + vy))
            assert abs(shifted - base) <= 1e-9 * max(abs(base), 1.0)

    def test_shift_invariance_sample_based(self):
        p = UncertainPoint(
            SampleBased((Point2D(1, 2), Point2D(-4, 5), Point2D(0, 0)), (0.2, 0.3, 0.5))
        )
        c = Point2D(7, -3)
        base = expected_sq_distance(p, c)
        shifted = expected_sq_distance(translate(p, 11.5, -2.25), Point2D(18.5, -5.25))
        assert abs(shifted - base) < 1e-9 * base

    def test_monotone_decomposition(self):
        # E - ||mu - c||^2 = R^2/2 for every disk
        rng = make_rng(4)
        for _ in range(100):
            mx, my, cx, cy = rng.uniform(-100, 100, size=4)
            r = rng.uniform(0, 40)
            p = disk(mx, my, r)
            c = Point2D(cx, cy)
            residual = expected_sq_distance(p, c) - sq_distance(Point2D(mx, my), c)
            assert residual == pytest.approx(r * r / 2.0, rel=1e-12, abs=1e-12)

    def test_zero_radius_bit_identical_to_squared_distance(self):
        rng = make_rng(5)
        for _ in range(50):
            mx, my, cx, cy = rng.uniform(-100, 100, size=4)
            p = disk(mx, my, 0.0)
            c = Point2D(cx, cy)
            assert expected_sq_distance(p, c) == sq_distance(Point2D(mx, my), c)


class TestSamplePosition:
    def test_zero_radius_always_center(self):
        rng = make_rng(0)
        p = disk(0, 0, 0)
        for _ in range(10):
            assert sample_position(p, rng) == Point2D(0, 0)

    def test_mean_radius_two_thirds_r(self):
        # area-uniform disk has E[r] = 2R/3
        rng = make_rng(1)
        p = disk(0, 0, 2)
        draws = [sample_position(p, rng) for _ in range(100_000)]
        mean_r = np.mean([math.hypot(q.x, q.y) for q in draws])
        assert abs(mean_r - 4.0 / 3.0) < 0.02 * (4.0 / 3.0)

    def test_degenerate_weights_pick_first(self):
        rng = make_rng(2)
        p = UncertainPoint(SampleBased((Point2D(1, 1), Point2D(9, 9)), (1.0, 0.0)))
        for _ in range(20):
            assert sample_position(p, rng) == Point2D(1, 1)

