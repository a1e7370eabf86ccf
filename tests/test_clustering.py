import numpy as np
import pytest

from mmwavesim.clustering import (
    ClusteringConfig,
    InitStrategy,
    run_clustering,
)
from mmwavesim.errors import ConfigError
from mmwavesim.geometry import (
    Point2D,
    SampleBased,
    UncertainPoint,
    UniformDisk,
    expected_sq_distance,
    moments,
)
from mmwavesim.seeding import make_rng
from reference import kmeans_assign, kmeans_update, sample_position, ukmeans_assign, ukmeans_update, xy


def P(x, y):
    return Point2D(float(x), float(y))


def random_points(rng, n, scale=100.0):
    return [P(x, y) for x, y in rng.uniform(-scale, scale, size=(n, 2))]


def random_disks(rng, n, scale=100.0, rmax=20.0):
    return [
        UncertainPoint(UniformDisk(P(x, y), float(r)))
        for (x, y), r in zip(rng.uniform(-scale, scale, size=(n, 2)), rng.uniform(0, rmax, n))
    ]


class TestKmeansAssign:
    def test_basic(self):
        assert kmeans_assign([P(0, 0), P(10, 0)], [P(1, 0), P(9, 0)]) == [0, 1]

    def test_tie_breaks_low_index(self):
        assert kmeans_assign([P(5, 0)], [P(0, 0), P(10, 0)]) == [0]

    def test_against_bruteforce_argmin(self):
        rng = make_rng(17)
        points = random_points(rng, 100)
        centers = random_points(rng, 3)
        got = kmeans_assign(points, centers)
        for p, label in zip(points, got):
            dists = [(p.x - c.x) ** 2 + (p.y - c.y) ** 2 for c in centers]
            assert dists[label] == min(dists)
            assert label == dists.index(min(dists))


class TestKmeansUpdate:
    def test_means(self):
        centers = kmeans_update([P(0, 0), P(0, 1), P(10, 0), P(10, 1)], [0, 0, 1, 1], 2)
        assert centers == [P(0, 0.5), P(10, 0.5)]

    def test_single_member(self):
        centers = kmeans_update([P(3, 7)], [0], 1)
        assert centers == [P(3, 7)]

    def test_empty_cluster_reseeds_at_farthest_point(self):
        # cluster 1 has no members; the point farthest from its own center
        # is (100, 0), so center 1 moves there
        points = [P(0, 0), P(1, 0), P(100, 0)]
        centers = kmeans_update(points, [0, 0, 0], 2)
        assert centers[1] == P(100, 0)


class TestUkmeansOps:
    def test_disk_labels_match_kmeans_on_centers(self):
        rng = make_rng(23)
        for _ in range(100):
            upoints = random_disks(rng, 20)
            centers = random_points(rng, 3)
            uk = ukmeans_assign(upoints, centers)
            km = kmeans_assign([p.pdf.center for p in upoints], centers)
            assert uk == km

    def test_assign_matches_expected_distance_argmin_oracle(self):
        rng = make_rng(29)
        upoints = random_disks(rng, 50) + [
            UncertainPoint(
                SampleBased(tuple(random_points(rng, 3)), (0.2, 0.5, 0.3))
            )
            for _ in range(10)
        ]
        centers = random_points(rng, 4)
        got = ukmeans_assign(upoints, centers)
        for p, label in zip(upoints, got):
            dists = [expected_sq_distance(p, c) for c in centers]
            assert label == dists.index(min(dists))

    def test_informative_sample_pdf(self):
        up = UncertainPoint(SampleBased((P(0, 0), P(10, 0)), (0.9, 0.1)))
        assert ukmeans_assign([up], [P(0, 0), P(10, 0)]) == [0]
        assert expected_sq_distance(up, P(0, 0)) == pytest.approx(10.0)
        assert expected_sq_distance(up, P(10, 0)) == pytest.approx(90.0)

    def test_zero_radius_bit_identical_to_kmeans(self):
        rng = make_rng(31)
        pts = random_points(rng, 30)
        upoints = [UncertainPoint(UniformDisk(p, 0.0)) for p in pts]
        centers = random_points(rng, 3)
        assert ukmeans_assign(upoints, centers) == kmeans_assign(pts, centers)
        labels = kmeans_assign(pts, centers)
        assert ukmeans_update(upoints, labels, 3) == kmeans_update(pts, labels, 3)

    def test_update_mean_of_expected_positions(self):
        ups = [
            UncertainPoint(UniformDisk(P(0, 0), 1.0)),
            UncertainPoint(UniformDisk(P(2, 0), 5.0)),
        ]
        assert ukmeans_update(ups, [0, 0], 1) == [P(1, 0)]

    def test_update_sample_based_vs_sampling_oracle(self):
        rng = make_rng(37)
        ups = [
            UncertainPoint(SampleBased(tuple(random_points(rng, 4)), (0.1, 0.2, 0.3, 0.4)))
            for _ in range(3)
        ]
        (center,) = ukmeans_update(ups, [0, 0, 0], 1)
        draw_rng = make_rng(38)
        n = 300_000
        est = np.zeros(2)
        for p in ups:
            draws = np.array([(s.x, s.y) for s in (sample_position(p, draw_rng) for _ in range(n))])
            est += draws.mean(axis=0)
        est /= len(ups)
        assert abs(center.x - est[0]) < 0.01 * max(1.0, abs(center.x))
        assert abs(center.y - est[1]) < 0.01 * max(1.0, abs(center.y))


class TestRunClustering:
    def test_two_separated_pairs(self):
        pts = [P(0, 0), P(0, 1), P(10, 0), P(10, 1)]
        res = run_clustering(xy(pts), ClusteringConfig(k=2, seed=1))
        assert res.converged
        assert res.iterations <= 3
        assert sorted((c.x, c.y) for c in res.centers) == [(0, 0.5), (10, 0.5)]

    def test_k_equals_n_zero_objective(self):
        rng = make_rng(41)
        pts = random_points(rng, 5)
        res = run_clustering(xy(pts), ClusteringConfig(k=5, seed=2))
        assert res.objective == pytest.approx(0.0, abs=1e-18)

    def test_better_than_random_labelings(self):
        rng = make_rng(43)
        pts = random_points(rng, 50)
        res = run_clustering(xy(pts), ClusteringConfig(k=2, seed=3))
        arr = np.array([(p.x, p.y) for p in pts])
        for _ in range(1000):
            labels = rng.integers(0, 2, size=50)
            if labels.min() == labels.max():
                continue
            obj = 0.0
            for j in range(2):
                members = arr[labels == j]
                if len(members):
                    obj += ((members - members.mean(axis=0)) ** 2).sum()
            assert res.objective <= obj + 1e-9

    def test_objective_matches_recomputation(self):
        rng = make_rng(47)
        ups = random_disks(rng, 30)
        means, spread = moments(ups)
        res = run_clustering(means, ClusteringConfig(k=3, seed=4), spread=spread)
        recomputed = sum(
            expected_sq_distance(p, res.centers[l]) for p, l in zip(ups, res.labels)
        )
        assert res.objective == pytest.approx(recomputed, rel=1e-9)

    def test_monotone_objective(self):
        rng = make_rng(53)
        for _ in range(100):
            pts = random_points(rng, 40)
            res = run_clustering(
                xy(pts), ClusteringConfig(k=4, seed=int(rng.integers(1 << 31)))
            )
            hist = res.objective_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_determinism(self):
        rng = make_rng(59)
        pts = random_points(rng, 25)
        cfg = ClusteringConfig(k=3, seed=77)
        r1 = run_clustering(xy(pts), cfg)
        r2 = run_clustering(xy(pts), cfg)
        assert r1 == r2

    def test_uniform_disk_degeneracy_label_sequences(self):
        # smaller-N twin of the acceptance criterion
        rng = make_rng(61)
        for _ in range(10):
            ups = random_disks(rng, 20, rmax=30.0)
            cfg = ClusteringConfig(k=3, seed=int(rng.integers(1 << 31)))
            means, spread = moments(ups)
            ru = run_clustering(means, cfg, spread=spread)
            rk = run_clustering(xy([p.pdf.center for p in ups]), cfg)
            assert ru.label_history == rk.label_history

    def test_permutation_equivariance_on_separated_blobs(self):
        # well-separated blobs converge to the same partition under any
        # input order: compare label multiset and objective
        rng = make_rng(67)
        blobs = []
        for cx, cy in ((0, 0), (200, 0), (0, 200)):
            blobs += [P(cx + dx, cy + dy) for dx, dy in rng.normal(0, 3, size=(8, 2))]
        cfg = ClusteringConfig(k=3, seed=5)
        base = run_clustering(xy(blobs), cfg)
        perm = list(rng.permutation(len(blobs)))
        permuted = run_clustering(xy([blobs[i] for i in perm]), cfg)
        assert sorted(np.bincount(base.labels, minlength=3)) == sorted(
            np.bincount(permuted.labels, minlength=3)
        )
        assert permuted.objective == pytest.approx(base.objective, rel=1e-9)

    def test_random_points_init(self):
        rng = make_rng(71)
        pts = random_points(rng, 12)
        res = run_clustering(
            xy(pts),
            ClusteringConfig(k=3, seed=6, init_strategy=InitStrategy.RANDOM_POINTS),
        )
        assert res.converged

    def test_warm_start(self):
        pts = [P(0, 0), P(0, 1), P(10, 0), P(10, 1)]
        res = run_clustering(
            xy(pts),
            ClusteringConfig(k=2, seed=7),
            initial_centers=[P(0, 0.5), P(10, 0.5)],
        )
        assert res.iterations == 1
        assert res.converged

    def test_k_exceeding_points_is_config_error(self):
        with pytest.raises(ConfigError):
            run_clustering(xy([P(0, 0)]), ClusteringConfig(k=2, seed=0))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ClusteringConfig(k=0)
        with pytest.raises(ConfigError):
            ClusteringConfig(k=1, max_iterations=0)
