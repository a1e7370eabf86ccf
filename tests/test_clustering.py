from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim import engine
from mmwavesim.clustering import (
    ClusteringConfig,
    InitStrategy,
    run_clustering,
)
from mmwavesim.engine import Scenario, ScenarioConfig
from mmwavesim.errors import ConfigError
from mmwavesim.geometry import Point2D, UniformDisk
from mmwavesim.seeding import make_rng
from reference import (
    SampleBased,
    UncertainPoint,
    expected_sq_distance,
    history,
    kmeans_assign,
    kmeans_update,
    moments,
    objective,
    ukmeans_assign,
    ukmeans_update,
    xy,
)


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
            # n draws of `sample_position` at once: the same weights and uniforms
            samples = np.array([(s.x, s.y) for s in p.pdf.samples])
            idx = np.searchsorted(np.cumsum(p.pdf.weights), draw_rng.random(n), side="right")
            est += samples[np.minimum(idx, len(samples) - 1)].mean(axis=0)
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
        assert objective(xy(pts), res) == pytest.approx(0.0, abs=1e-18)

    def test_better_than_random_labelings(self):
        rng = make_rng(43)
        pts = random_points(rng, 50)
        res = run_clustering(xy(pts), ClusteringConfig(k=2, seed=3))
        found = objective(xy(pts), res)
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
            assert found <= obj + 1e-9

    def test_objective_matches_recomputation(self):
        rng = make_rng(47)
        ups = random_disks(rng, 30)
        means, spread = moments(ups)
        res = run_clustering(means, ClusteringConfig(k=3, seed=4))
        recomputed = sum(
            expected_sq_distance(p, res.centers[l]) for p, l in zip(ups, res.labels)
        )
        assert objective(means, res) + spread == pytest.approx(recomputed, rel=1e-9)

    def test_monotone_objective(self):
        rng = make_rng(53)
        for _ in range(100):
            pts = random_points(rng, 40)
            cfg = ClusteringConfig(k=4, seed=int(rng.integers(1 << 31)))
            hist = [obj for _, obj in history(xy(pts), cfg)]
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
            means, _ = moments(ups)
            ru = history(means, cfg)
            rk = history(xy([p.pdf.center for p in ups]), cfg)
            assert [labels for labels, _ in ru] == [labels for labels, _ in rk]

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
        assert objective(xy([blobs[i] for i in perm]), permuted) == pytest.approx(
            objective(xy(blobs), base), rel=1e-9
        )

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

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ClusteringConfig(k=0)
        with pytest.raises(ConfigError):
            ClusteringConfig(k=1, max_iterations=0)


# small integers make ties and coincident points; floats make the rest
COORD = st.integers(-8, 8).map(float) | st.floats(-160.0, 160.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_history_ends_at_the_full_call(data):
    n = data.draw(st.integers(1, 40), label="n")
    k = data.draw(st.integers(1, min(n, 6)), label="k")
    pts = np.array(data.draw(st.lists(st.tuples(COORD, COORD), min_size=n, max_size=n)))
    cfg = ClusteringConfig(
        k=k,
        max_iterations=data.draw(st.integers(1, 12), label="max_iterations"),
        convergence_epsilon=data.draw(st.sampled_from([0.0, 1e-6, 1.0]), label="epsilon"),
        init_strategy=data.draw(st.sampled_from(InitStrategy), label="init"),
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
    )
    warm = data.draw(st.none() | st.lists(st.tuples(COORD, COORD), min_size=k, max_size=k))
    initial = None if warm is None else [P(x, y) for x, y in warm]
    full = run_clustering(pts, cfg, initial)
    hist = history(pts, cfg, initial)
    assert len(hist) == full.iterations
    assert hist[-1] == (full.labels, objective(pts, full))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_settled_result_is_a_fixed_point(data):
    """A settled call's centers, as the warm start of the next call, give
    back its labels and centers (signed zeros included); a call whose last
    round moved a center is not settled."""
    n = data.draw(st.integers(1, 20), label="n")
    k = data.draw(st.integers(1, min(n, 5)), label="k")
    coord = COORD | st.just(-0.0)
    pts = np.array(data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    cfg = ClusteringConfig(
        k=k,
        max_iterations=data.draw(st.integers(1, 5), label="max_iterations"),
        convergence_epsilon=data.draw(st.sampled_from([0.0, 1e-6, 1.0]), label="epsilon"),
        init_strategy=data.draw(st.sampled_from(InitStrategy), label="init"),
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
    )
    warm = data.draw(st.none() | st.lists(st.tuples(coord, coord), min_size=k, max_size=k))
    initial = None if warm is None else [P(x, y) for x, y in warm]
    result = run_clustering(pts, cfg, initial)
    if result.settled:
        again = run_clustering(pts, cfg, result.centers)
        assert repr((again.labels, again.centers)) == repr((result.labels, result.centers))
    if result.iterations > 1:  # the last round's input: the rounds before it
        shorter = replace(cfg, max_iterations=result.iterations - 1)
        before = run_clustering(pts, shorter, initial).centers
    else:
        before = initial
    if before is not None and list(before) != list(result.centers):
        assert not result.settled


def test_coverage_sweep_cell_clusters_once_per_movement(monkeypatch):
    """The first cell of the coverage sweep (400 TTIs, a move every 10)
    clusters at its 40 movement events and at no TTI that would only find
    the clustering settled."""
    cfg = ScenarioConfig(
        scenario=Scenario.KMEANS_EXACT, n_beams=3, beam_width_deg=30.0, tti_count=400
    )
    calls = []
    wrapped = engine.run_clustering

    def counted(*args):
        calls.append(None)
        return wrapped(*args)

    monkeypatch.setattr(engine, "run_clustering", counted)
    engine.mean_coverage(cfg)
    assert len(calls) == 40
