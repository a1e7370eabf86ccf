"""The geometry stage: recomputed at movement events only, and exactly
what recomputing it every TTI would give; and its clustering rounds, which
give the bits of the numpy oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim import engine
from mmwavesim.agent import encode_state
from mmwavesim.beams import compute_sinr, coverage_rate, form_beams, rbg_rate, sinr_to_cqi
from mmwavesim.clustering import ClusteringConfig, InitStrategy, run_clustering
from mmwavesim.engine import Scenario, ScenarioConfig, ScenarioRun
from mmwavesim.geometry import Point2D
from mmwavesim.seeding import derive_seed
from reference import numpy_clustering


def micro_cfg(**overrides):
    base = dict(
        n_ues=4,
        n_clusters=2,
        n_beams=2,
        tti_count=40,
        runs=1,
        master_seed=424242,
        load_bps=4e6,
        rbg_count=6,
        train_interval_ttis=8,
        target_copy_interval_ttis=16,
        replay_capacity=24,
        minibatch=8,
        hidden_units=8,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def make_run(cfg, **kwargs):
    return ScenarioRun(cfg, run_seed=derive_seed(cfg.master_seed, 0), **kwargs)


class Mirror:
    """Recomputes clustering, beams, coverage and SINR at every TTI,
    warm-started from its own previous centers."""

    def __init__(self, run):
        self.run = run
        self.centers = None

    def step(self):
        run, cfg = self.run, self.run.cfg
        points = run.believed_xy
        result = run_clustering(points, run.clustering, initial_centers=self.centers)
        self.centers = result.centers
        beams = form_beams(
            list(result.centers),
            math.radians(cfg.beam_width_deg),
            cfg.n_beams,
            points=points,
            labels=result.labels,
        )
        cov = coverage_rate(beams, run.true_xy, cfg.cell_radius_m)
        sinr_db = {}
        for b, beam in enumerate(beams):
            others = beams[:b] + beams[b + 1 :]
            for uid in beam.members:
                p = Point2D(*run.true_xy[uid].tolist())
                sinr_db[(b, uid)] = compute_sinr(
                    math.atan2(p.y, p.x), math.hypot(p.x, p.y), beam, others, cfg.antenna
                )
        return beams, cov, sinr_db


@st.composite
def positions(draw):
    r = draw(st.floats(min_value=1.0, max_value=160.0))
    theta = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    return Point2D(r * math.cos(theta), r * math.sin(theta))


@st.composite
def sparse_traces(draw, n_ues, tti_count):
    """{tti: [(ue_id, Point2D), ...]} with rows at a few TTIs for a few UEs."""
    trace = {}
    for t in draw(st.sets(st.integers(0, tti_count - 1), max_size=4)):
        ids = draw(st.sets(st.integers(0, n_ues - 1), min_size=1))
        trace[t] = [(u, draw(positions())) for u in sorted(ids)]
    return trace


@st.composite
def runs(draw):
    n_ues = draw(st.integers(1, 6))
    n_clusters = draw(st.integers(1, n_ues))
    cfg = micro_cfg(
        scenario=draw(st.sampled_from(list(Scenario))),
        n_ues=n_ues,
        n_clusters=n_clusters,
        n_beams=draw(st.integers(1, 7)),  # above and below n_clusters: split and merge
        beam_width_deg=draw(st.sampled_from([10.0, 20.0, 90.0])),
        informative_pdf=draw(st.booleans()),
        move_interval_ttis=draw(st.integers(1, 4)),
        tti_count=12,
        master_seed=draw(st.integers(0, 2**32)),
        rbg_count=2,
        hidden_units=3,
        minibatch=4,
        replay_capacity=8,
        train_interval_ttis=5,
        target_copy_interval_ttis=10,
        # one or two iterations often stop short of a fixed point
        cluster_max_iterations=draw(st.sampled_from([1, 2, 100])),
        cluster_init=draw(st.sampled_from(list(InitStrategy))),
    )
    trace = draw(st.none() | sparse_traces(n_ues, cfg.tti_count))
    return make_run(cfg, trace=trace, coverage_only=draw(st.booleans()))


def assert_step_equals_mirror(run, mirror, t):
    coverage, _, _ = run.step(t)
    beams, cov, sinr_db = mirror.step()
    assert run.geometry.beams == beams
    assert coverage == cov
    if not run.coverage_only:
        assert_links_follow_sinr(run, sinr_db)


class TestReuseIsExact:
    @settings(max_examples=80, deadline=None)
    @given(run=runs())
    def test_every_tti_equals_recomputing_it(self, run):
        mirror = Mirror(run)
        for t in range(run.cfg.tti_count):
            assert_step_equals_mirror(run, mirror, t)

    @settings(max_examples=60, deadline=None)
    @given(run=runs(), data=st.data())
    def test_steps_in_any_order_equal_recomputing_them(self, run, data):
        """A TTI's movement event is read from t alone, so steps taken out of
        order, or twice, still reuse only what recomputing would give."""
        ttis = data.draw(st.lists(st.integers(0, run.cfg.tti_count - 1), max_size=16), label="ttis")
        mirror = Mirror(run)
        for t in ttis:
            assert_step_equals_mirror(run, mirror, t)

    def test_going_back_in_time_equals_recomputing(self):
        run = make_run(micro_cfg())
        mirror = Mirror(run)
        for t in (25, 20, 0, 30, 30, 11, 10, 10, 31):
            assert_step_equals_mirror(run, mirror, t)


def assert_links_follow_sinr(run, sinr_db):
    """The run holds one link per (beam, member) of `sinr_db`, and each is the
    rate, state and SINR ratio of the SINR in dB that `sinr_db` gives it."""
    cfg = run.cfg
    links = run.geometry.links
    assert {(b, uid) for b, table in enumerate(links) for uid in table} == set(sinr_db)
    for (b, uid), sdb in sinr_db.items():
        link = links[b][uid]
        assert link.bits == rbg_rate(sdb, cfg.antenna) * cfg.tti_duration_s
        assert link.next_state == encode_state(sinr_to_cqi(sdb))
        assert link.sinr_ratio == 10 ** (sdb / 10) / 10 ** (cfg.qos_sinr_db / 10)


class CallLog:
    """Logs the TTI of every call to the named attributes of `owner`: the
    functions `engine` calls, or the methods of `ScenarioRun`."""

    def __init__(self, monkeypatch, *names, owner=engine):
        self.tti = None
        self.calls = {name: [] for name in names}
        for name in names:
            monkeypatch.setattr(owner, name, self._logged(name, getattr(owner, name)))

    def _logged(self, name, fn):
        def logged(*args, **kwargs):
            self.calls[name].append(self.tti)
            return fn(*args, **kwargs)

        return logged

    def step_all(self, run):
        for t in range(run.cfg.tti_count):
            self.tti = t
            run.step(t)


# every movement event of micro_cfg, then the call that finds the fixed point
MOVES = [0, 1, 10, 11, 20, 21, 30, 31]
TRACE = {
    5: [(1, Point2D(-15.0, 25.0))],
    17: [(0, Point2D(10.0, 20.0)), (3, Point2D(70.0, 80.0))],
}


class TestRecomputedOnlyAtMovement:
    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("coverage_only", [False, True])
    def test_synthetic_movement(self, monkeypatch, scenario, coverage_only):
        log = CallLog(monkeypatch, "run_clustering", "form_beams", "coverage_rate")
        log.step_all(make_run(micro_cfg(scenario=scenario), coverage_only=coverage_only))
        assert log.calls == {"run_clustering": MOVES, "form_beams": MOVES, "coverage_rate": MOVES}

    def test_sinr_computed_only_at_movement(self, monkeypatch):
        log = CallLog(monkeypatch, "compute_sinr")
        log.step_all(make_run(micro_cfg()))
        # each of the 4 UEs is a member of one of the 2 beams
        assert log.calls["compute_sinr"] == [t for t in MOVES for _ in range(4)]

    def test_trace_rows(self, monkeypatch):
        log = CallLog(monkeypatch, "run_clustering")
        log.step_all(make_run(micro_cfg(), trace=TRACE))
        assert log.calls["run_clustering"] == [0, 1, 5, 6, 17, 18]

    @pytest.mark.parametrize("trace", [None, TRACE])
    @pytest.mark.parametrize("coverage_only", [False, True])
    def test_a_cached_tti_enters_no_geometry_method(self, monkeypatch, trace, coverage_only):
        log = CallLog(monkeypatch, "_mobility", "_geometry", owner=ScenarioRun)
        log.step_all(make_run(micro_cfg(), trace=trace, coverage_only=coverage_only))
        if trace is None:
            assert log.calls == {"_mobility": [10, 20, 30], "_geometry": MOVES}
        else:
            assert log.calls == {"_mobility": [5, 17], "_geometry": [0, 1, 5, 6, 17, 18]}

    def test_no_fixed_point_recomputes_next_tti(self, monkeypatch):
        fixed = []
        wrapped = engine.run_clustering

        def logged(data, cfg, initial_centers=None):
            result = wrapped(data, cfg, initial_centers=initial_centers)
            fixed.append(result.centers == initial_centers)
            return result

        monkeypatch.setattr(engine, "run_clustering", logged)
        log = CallLog(monkeypatch, "run_clustering")
        cfg = micro_cfg(
            n_ues=6,
            n_clusters=3,
            master_seed=1,
            cluster_init=InitStrategy.RANDOM_POINTS,
            cluster_max_iterations=1,
            tti_count=10,
        )
        log.step_all(make_run(cfg))
        # one iteration per call: the calls repeat, TTI after TTI, up to a fixed point
        n = len(log.calls["run_clustering"])
        assert n == 5
        assert log.calls["run_clustering"] == list(range(n))
        assert fixed == [False] * (n - 1) + [True]


# small integers make ties and coincident points, -0.0 signed zeros, and
# floats the rest
COORD = st.integers(-4, 4).map(float) | st.just(-0.0) | st.floats(-160.0, 160.0)


class TestScalarClusteringEqualsNumpy:
    """`run_clustering`'s plain-Python rounds give the bits of the numpy
    oracle: labels, centers (signed zeros included), rounds and stop."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_oracle(self, data):
        n = data.draw(st.integers(1, 60), label="n")
        k = data.draw(st.integers(1, min(n, 5)), label="k")
        pts = np.array(data.draw(st.lists(st.tuples(COORD, COORD), min_size=n, max_size=n)))
        cfg = ClusteringConfig(
            k=k,
            max_iterations=data.draw(st.sampled_from([1, 2, 100]), label="max_iterations"),
            convergence_epsilon=data.draw(st.sampled_from([0.0, 1e-6, 1.0]), label="epsilon"),
            init_strategy=data.draw(st.sampled_from(InitStrategy), label="init"),
            seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
        )
        # a warm start far from the points leaves clusters empty, to be reseeded
        far = st.tuples(st.sampled_from([-1e4, 1e4]), st.sampled_from([-1e4, 1e4]))
        warm = data.draw(st.none() | st.lists(st.tuples(COORD, COORD) | far, min_size=k, max_size=k))
        initial = None if warm is None else [Point2D(x, y) for x, y in warm]
        assert_equals_oracle(pts, cfg, initial)

    @pytest.mark.parametrize("init", list(InitStrategy))
    def test_large_clusters_and_reseeds(self, init):
        """Past 8 points per cluster, where a pairwise sum would differ, and
        with two empty clusters reseeded in one round."""
        rng = np.random.default_rng(7)
        pts = np.concatenate([rng.normal(c, 3.0, size=(40, 2)) for c in (-50.0, 0.0, 50.0)])
        pts[::7, 1] = -0.0
        cfg = ClusteringConfig(k=4, init_strategy=init, convergence_epsilon=0.0, seed=3)
        far = [Point2D(0.0, 0.0), Point2D(1e4, 1e4), Point2D(-1e4, 1e4), Point2D(50.0, 50.0)]
        for initial in (None, far):
            assert_equals_oracle(pts, cfg, initial)

    def test_a_lone_negative_zero_averages_to_positive_zero(self):
        pts = np.array([[-2.0, -0.0], [5.0, 5.0]])
        cfg = ClusteringConfig(k=2, max_iterations=1)
        result = assert_equals_oracle(pts, cfg, [Point2D(-2.0, 0.0), Point2D(5.0, 5.0)])
        assert repr(result.centers[0]) == "Point2D(x=-2.0, y=0.0)"


def assert_equals_oracle(pts, cfg, initial):
    got = run_clustering(pts, cfg, initial)
    want = numpy_clustering(pts, cfg, initial)
    assert repr(got.labels) == repr(want.labels)
    assert repr(got.centers) == repr(want.centers)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    return got
