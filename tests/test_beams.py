import math

import numpy as np
import pytest

from mmwavesim.beams import (
    AntennaConfig,
    Beam,
    beam_gain,
    compute_sinr,
    coverage_rate,
    form_beams,
    rbg_rate,
    sinr_to_cqi,
)
from mmwavesim.geometry import Point2D
from mmwavesim.seeding import make_rng
from reference import array_response, xy


def P(x, y):
    return Point2D(float(x), float(y))


class TestArrayResponse:
    def test_broadside(self):
        v = array_response(0.0, AntennaConfig(n_antennas=4))
        assert np.allclose(v, 0.5 * np.ones(4))

    def test_endfire_two_elements(self):
        v = array_response(math.pi / 2, AntennaConfig(n_antennas=2))
        expected = np.array([1.0, -1.0]) / math.sqrt(2)
        assert np.allclose(v, expected, atol=1e-12)

    def test_unit_norm(self):
        cfg = AntennaConfig(n_antennas=64)
        rng = make_rng(0)
        for ang in rng.uniform(-math.pi, math.pi, 20):
            assert abs(np.linalg.norm(array_response(float(ang), cfg)) - 1.0) < 1e-12


class TestBeamGain:
    def test_peak_equals_element_count(self):
        for n in (1, 8, 64, 1024):
            cfg = AntennaConfig(n_antennas=n)
            assert beam_gain(0.7, 0.7, cfg) == float(n)

    def test_first_null(self):
        cfg = AntennaConfig(n_antennas=8)
        gain = beam_gain(0.0, math.asin(2.0 / 8.0), cfg)
        assert gain < 1e-9

    def test_single_element_omnidirectional(self):
        cfg = AntennaConfig(n_antennas=1)
        rng = make_rng(1)
        for b, u in rng.uniform(-1.5, 1.5, size=(20, 2)):
            assert beam_gain(float(b), float(u), cfg) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_matches_inner_product(self):
        # the closed-form Fejer pattern against the explicit conjugate
        # inner product of response vectors, 1000 random pairs
        cfg = AntennaConfig(n_antennas=32)
        rng = make_rng(2)
        for b, u in rng.uniform(-math.pi / 2, math.pi / 2, size=(1000, 2)):
            closed = beam_gain(float(b), float(u), cfg)
            inner = np.vdot(array_response(float(b), cfg), array_response(float(u), cfg))
            explicit = cfg.n_antennas * float(np.abs(inner)) ** 2
            assert abs(closed - explicit) <= 1e-9 * max(closed, explicit, 1e-12)

    def test_range(self):
        cfg = AntennaConfig(n_antennas=128)
        rng = make_rng(3)
        for b, u in rng.uniform(-math.pi, math.pi, size=(500, 2)):
            g = beam_gain(float(b), float(u), cfg)
            assert 0.0 <= g <= cfg.n_antennas * (1 + 1e-12)

    def test_beamspace_energy_parseval(self):
        # DFT-grid boresights form an orthonormal basis: the projection
        # energies of any response vector sum to its unit norm
        n = 16
        cfg = AntennaConfig(n_antennas=n)
        grid = [math.asin(2.0 * b / n) for b in range(-n // 2, n // 2)]
        rng = make_rng(4)
        for u in rng.uniform(-math.pi / 2, math.pi / 2, 10):
            a_u = array_response(float(u), cfg)
            total = sum(
                float(np.abs(np.vdot(array_response(g, cfg), a_u))) ** 2 for g in grid
            )
            assert total == pytest.approx(1.0, abs=1e-9)


class TestFormBeams:
    def test_boresights_at_centroid_angles(self):
        centers = [
            P(100 * math.cos(math.radians(a)), 100 * math.sin(math.radians(a)))
            for a in (10, 50, 90)
        ]
        beams = form_beams(centers, math.radians(20), 3, points=xy(centers), labels=range(3))
        got = [math.degrees(b.boresight) for b in beams]
        assert got == pytest.approx([10.0, 50.0, 90.0])

    def test_single_center(self):
        beams = form_beams([P(0, 50)], math.radians(20), 1, points=xy([P(0, 50)]), labels=range(1))
        assert len(beams) == 1
        assert beams[0].boresight == pytest.approx(math.pi / 2)

    def test_split_widest_cluster(self):
        # four-point fixture: cluster 0 spans ~2.9 deg, cluster 1 spans
        # 53.1..90 deg; the wide one splits into its two members
        pts = [P(100, 0), P(100, 10), P(0, 100), P(60, 80)]
        labels = [0, 0, 1, 1]
        centers = [P(100, 5), P(30, 90)]
        beams = form_beams(centers, math.radians(20), 3, points=xy(pts), labels=labels)
        got = sorted(math.degrees(b.boresight) for b in beams)
        expected = sorted(
            [
                math.degrees(math.atan2(5, 100)),  # intact narrow cluster
                math.degrees(math.atan2(80, 60)),  # split member (60, 80)
                90.0,  # split member (0, 100)
            ]
        )
        assert got == pytest.approx(expected)
        assert sorted(b.members for b in beams) == [(0, 1), (2,), (3,)]

    def test_merge_two_angularly_closest(self):
        centers = [
            P(100 * math.cos(math.radians(a)), 100 * math.sin(math.radians(a)))
            for a in (10, 50, 90)
        ]
        beams = form_beams(centers, math.radians(20), 2, points=xy(centers), labels=range(3))
        assert len(beams) == 2
        # gaps 10-50 and 50-90 tie at 40 deg; the lexicographically first
        # pair merges, centroid midway at 30 deg
        assert math.degrees(beams[0].boresight) == pytest.approx(30.0)
        assert math.degrees(beams[1].boresight) == pytest.approx(90.0)

    def test_duplicates_beyond_splittable(self):
        pts = [P(100, 0), P(0, 100)]
        beams = form_beams(pts, math.radians(20), 4, points=xy(pts), labels=[0, 1])
        assert len(beams) == 4
        assert [b.members for b in beams] == [(0,), (1,), (0,), (1,)]

    def test_deterministic(self):
        rng = make_rng(5)
        pts = [P(x, y) for x, y in rng.uniform(-100, 100, size=(12, 2))]
        labels = list(rng.integers(0, 3, 12))
        centers = [P(0, 50), P(50, 0), P(-50, -10)]
        a = form_beams(centers, math.radians(30), 5, points=xy(pts), labels=labels)
        b = form_beams(centers, math.radians(30), 5, points=xy(pts), labels=labels)
        assert a == b


class TestCoverage:
    def test_on_beam_in_range(self):
        beams = [Beam(boresight=0.0, width=math.radians(20), members=(0,))]
        assert coverage_rate(beams, xy([P(100, 0)]), 160.0) == 1.0

    def test_just_outside_sector(self):
        width = math.radians(20)
        beams = [Beam(boresight=0.0, width=width, members=(0,))]
        ang = width / 2 + 0.001
        pos = P(100 * math.cos(ang), 100 * math.sin(ang))
        assert coverage_rate(beams, xy([pos]), 160.0) == 0.0

    def test_out_of_cell_radius(self):
        beams = [Beam(boresight=0.0, width=math.radians(20), members=(0,))]
        assert coverage_rate(beams, xy([P(161, 0)]), 160.0) == 0.0

    def test_rotation_invariance(self):
        rng = make_rng(6)
        beams = [
            Beam(boresight=float(b), width=math.radians(25), members=(0,))
            for b in rng.uniform(-math.pi, math.pi, 3)
        ]
        pts = [P(x, y) for x, y in rng.uniform(-120, 120, size=(40, 2))]
        base = coverage_rate(beams, xy(pts), 160.0)
        for theta in rng.uniform(-math.pi, math.pi, 5):
            c, s = math.cos(float(theta)), math.sin(float(theta))
            rot_beams = [
                Beam(
                    boresight=math.remainder(b.boresight + theta, 2 * math.pi),
                    width=b.width,
                    members=b.members,
                )
                for b in beams
            ]
            rot_pts = [P(c * p.x - s * p.y, s * p.x + c * p.y) for p in pts]
            assert coverage_rate(rot_beams, xy(rot_pts), 160.0) == base

    def test_adding_beam_never_decreases(self):
        rng = make_rng(7)
        pts = [P(x, y) for x, y in rng.uniform(-120, 120, size=(30, 2))]
        beams = []
        prev = 0.0
        for b in rng.uniform(-math.pi, math.pi, 6):
            beams.append(Beam(boresight=float(b), width=math.radians(30), members=(0,)))
            cov = coverage_rate(beams, xy(pts), 160.0)
            assert cov >= prev
            prev = cov


class TestSinr:
    def test_inverse_square_doubling(self):
        cfg = AntennaConfig()
        b = Beam(boresight=0.0, width=math.radians(20), members=(0,))
        s1 = compute_sinr(0.0, 100.0, b, [], cfg)
        s2 = compute_sinr(0.0, 200.0, b, [], cfg)
        assert s1 - s2 == pytest.approx(20 * math.log10(2), abs=1e-9)

    def test_null_interferer_equals_snr(self):
        cfg = AntennaConfig(n_antennas=8)
        serving = Beam(boresight=0.0, width=math.radians(20), members=(0,))
        # interferer pointed so the UE angle sits on its first null
        null_angle = math.asin(2.0 / 8.0)
        interferer = Beam(boresight=null_angle, width=math.radians(20), members=(1,))
        snr = compute_sinr(0.0, 100.0, serving, [], cfg)
        sinr = compute_sinr(0.0, 100.0, serving, [interferer], cfg)
        assert sinr == pytest.approx(snr, abs=1e-8)

    def test_fixture_against_bruteforce_formula(self):
        # independent re-evaluation of the whole chain at Nt=64
        cfg = AntennaConfig(n_antennas=64)
        ue_angle, dist = 0.1, 100.0
        serving = Beam(boresight=0.12, width=math.radians(20), members=(0,))
        other = Beam(boresight=-0.9, width=math.radians(20), members=(1,))
        got = compute_sinr(ue_angle, dist, serving, [other], cfg)

        lam = 299_792_458.0 / cfg.carrier_frequency_hz
        pl = (lam / (4 * math.pi * dist)) ** 2
        ptx = 10 ** ((cfg.tx_power_dbm - 30) / 10)
        noise = 10 ** ((cfg.noise_power_dbm - 30) / 10)

        def gain(bore):
            a_b = array_response(bore, cfg)
            a_u = array_response(ue_angle, cfg)
            return cfg.n_antennas * abs(np.vdot(a_b, a_u)) ** 2

        expected = 10 * math.log10(
            ptx * gain(0.12) * pl / (noise + ptx * gain(-0.9) * pl)
        )
        assert got == pytest.approx(expected, rel=1e-9)


class TestCqiAndRate:
    def test_below_table_is_zero(self):
        assert sinr_to_cqi(-10.0) == 0

    def test_monotone(self):
        rng = make_rng(8)
        sinrs = sorted(rng.uniform(-20, 40, 100))
        cfg = AntennaConfig()
        cqis = [sinr_to_cqi(s) for s in sinrs]
        rates = [rbg_rate(s, cfg) for s in sinrs]
        assert cqis == sorted(cqis)
        assert rates == sorted(rates)
        assert all(0 <= c <= 15 for c in cqis)
        assert all(r >= 0 for r in rates)

    def test_rate_fixture_15db(self):
        # independent recomputation: 12 * 120 kHz * 2 RBs = 2.88 MHz,
        # rate = 2.88e6 * log2(1 + 10^1.5)
        cfg = AntennaConfig()
        expected = 2.88e6 * math.log2(1.0 + 10.0 ** 1.5)
        assert rbg_rate(15.0, cfg) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(14.48e6, rel=1e-3)

    def test_cqi_threshold_edges(self):
        assert sinr_to_cqi(-6.7) == 1
        assert sinr_to_cqi(-6.71) == 0
        assert sinr_to_cqi(1000.0) == 15
