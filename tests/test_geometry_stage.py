"""The geometry stage: recomputed at movement events only, and exactly
what recomputing it every TTI would give."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim import engine
from mmwavesim.agent import encode_state
from mmwavesim.beams import compute_sinr, coverage_rate, form_beams, rbg_rate, sinr_to_cqi
from mmwavesim.clustering import InitStrategy, run_clustering
from mmwavesim.engine import Scenario, ScenarioConfig, ScenarioRun
from mmwavesim.geometry import Point2D
from mmwavesim.seeding import derive_seed


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


class TestReuseIsExact:
    @settings(max_examples=80, deadline=None)
    @given(run=runs())
    def test_every_tti_equals_recomputing_it(self, run):
        mirror = Mirror(run)
        for t in range(run.cfg.tti_count):
            coverage, _, _ = run.step(t)
            beams, cov, sinr_db = mirror.step()
            assert run.geometry.beams == beams
            assert coverage == cov
            if not run.coverage_only:
                link_sinr_db = {
                    (b, uid): link.sinr_db
                    for b, table in enumerate(run.geometry.links)
                    for uid, link in table.items()
                }
                assert link_sinr_db == sinr_db
                assert_links_follow_sinr(run)


def assert_links_follow_sinr(run):
    """Each (beam, member) link is the CQI, rate and state of its SINR."""
    cfg = run.cfg
    for table in run.geometry.links:
        for link in table.values():
            sdb = link.sinr_db
            assert link.cqi == sinr_to_cqi(sdb)
            assert link.bits == rbg_rate(sdb, cfg.antenna) * cfg.tti_duration_s
            assert link.next_state == encode_state(link.cqi)
            assert link.sinr_ratio == 10 ** (sdb / 10) / 10 ** (cfg.qos_sinr_db / 10)


class CallLog:
    """Logs the TTI of every call to the named `engine` functions."""

    def __init__(self, monkeypatch, *names):
        self.tti = None
        self.calls = {name: [] for name in names}
        for name in names:
            monkeypatch.setattr(engine, name, self._logged(name, getattr(engine, name)))

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
        trace = {
            5: [(1, Point2D(-15.0, 25.0))],
            17: [(0, Point2D(10.0, 20.0)), (3, Point2D(70.0, 80.0))],
        }
        log.step_all(make_run(micro_cfg(), trace=trace))
        assert log.calls["run_clustering"] == [0, 1, 5, 6, 17, 18]

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
