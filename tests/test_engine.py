import copy
import gc
import math
import tracemalloc

import numpy as np
import pytest

from mmwavesim import engine
from mmwavesim.engine import (
    Scenario,
    ScenarioConfig,
    ScenarioRun,
    load_position_trace,
    mean_coverage,
    run_scenario,
    write_per_tti_csv,
    write_summary_csv,
)
from mmwavesim.errors import ConfigError
from mmwavesim.geometry import Point2D, UniformDisk, uniform_disk_point
from mmwavesim.seeding import derive_seed, make_rng
from mmwavesim.traffic import PacketQueue
from reference import SampleBased, expected_position, reported_center
from reference import report_pdf as inject_error
from test_schedule_stage import Recorded


def micro_cfg(**overrides):
    base = dict(
        scenario=Scenario.KMEANS_ERROR,
        n_ues=4,
        n_clusters=2,
        n_beams=2,
        tti_count=20,
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


class Scheduled(Recorded):
    """Keeps the scheduling stage's output of the last TTI as attributes: the
    per-UE bit budgets, the per-beam allocations and the rewards."""

    def _schedule(self, t, geo):
        scheduled = super()._schedule(t, geo)
        self.budgets, self.allocations, self.rewards = self.scheduled
        return scheduled


class FirstBeamServed(ScenarioRun):
    """Serves only beam 0's RBGs; every beam still schedules and learns."""

    def _schedule(self, t, geo):
        _, actions = super()._schedule(t, geo)
        budgets = {}
        for rbg_actions in actions:  # in RBG order, as `_schedule` sums them
            action = rbg_actions[0]
            budgets[action] = budgets.get(action, 0.0) + geo.links[0][action].bits
        return budgets, actions


class ZeroFirst:
    """Draws like `rng`, except that its first `random()` returns 0.0: as the
    radius draw of `uniform_disk_point`, that puts a UE on the gNB."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, False

    def random(self):
        if self.drawn:
            return self.rng.random()
        self.drawn = True
        return 0.0


def redrawn_positions(rng, cfg):
    """The positions a placement of every UE gives after the zero draw: its
    angle draw, the next from `rng`, is spent too, and the UE drawn again."""
    rng.random()
    points = [uniform_disk_point(rng, cfg.cell_radius_m) for _ in range(cfg.n_ues)]
    return [[p.x, p.y] for p in points]


class TestInjectError:
    def test_radius_is_rmse_times_sqrt2(self):
        rng = make_rng(0)
        p = inject_error(Point2D(0, 0), 8.0, rng)
        assert isinstance(p.pdf, UniformDisk)
        assert p.pdf.radius == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-12)
        assert p.pdf.radius == pytest.approx(11.3137085, abs=1e-6)

    def test_zero_rmse_exact_report(self):
        rng = make_rng(1)
        p = inject_error(Point2D(3, -4), 0.0, rng)
        assert p.pdf.center == Point2D(3, -4)
        assert p.pdf.radius == 0.0

    def test_empirical_rmse(self):
        rng = make_rng(2)
        true = Point2D(10, 20)
        sq = 0.0
        n = 100_000
        for _ in range(n):
            rep = reported_center(inject_error(true, 8.0, rng))
            sq += (rep.x - true.x) ** 2 + (rep.y - true.y) ** 2
        assert math.sqrt(sq / n) == pytest.approx(8.0, abs=0.1)

    def test_informative_two_mode_pdf(self):
        rng = make_rng(3)
        true = Point2D(50, 50)
        sq = 0.0
        n = 50_000
        for _ in range(n):
            p = inject_error(true, 8.0, rng, informative=True)
            assert isinstance(p.pdf, SampleBased)
            assert p.pdf.weights == (0.5, 0.5)
            # the true position is always one of the two hypotheses
            hits = [
                s
                for s in p.pdf.samples
                if abs(s.x - true.x) < 1e-9 and abs(s.y - true.y) < 1e-9
            ]
            assert hits
            rep = reported_center(p)
            sq += (rep.x - true.x) ** 2 + (rep.y - true.y) ** 2
        assert math.sqrt(sq / n) == pytest.approx(8.0, abs=0.15)

    def test_informative_mean_closer_than_report(self):
        # the PDF mean always sits half a ghost displacement from truth,
        # closer on average than the raw report
        rng = make_rng(4)
        true = Point2D(0, 0)
        err_mean = err_rep = 0.0
        n = 20_000
        for _ in range(n):
            p = inject_error(true, 8.0, rng, informative=True)
            mu = expected_position(p)
            rep = reported_center(p)
            err_mean += mu.x**2 + mu.y**2
            err_rep += rep.x**2 + rep.y**2
        assert err_mean / n < err_rep / n


class TestPlacementAndMovement:
    def test_uniform_disk_mean_distance(self):
        rng = make_rng(5)
        r = 160.0
        n = 100_000
        total = sum(
            math.hypot(p.x, p.y) for p in (uniform_disk_point(rng, r) for _ in range(n))
        )
        assert total / n == pytest.approx(2.0 * r / 3.0, rel=0.01)

    def test_positions_change_only_on_move_ttis(self):
        run = make_run(micro_cfg(), coverage_only=True)
        snap = {}
        for t in range(12):
            run.step(t)
            snap[t] = run.true_xy.tolist()
        assert snap[9] == snap[0]
        assert snap[10] != snap[9]
        assert snap[11] == snap[10]

    def test_trace_mode_pass_through(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "tti,ue_id,x_m,y_m\n"
            "0,0,10.0,20.0\n0,1,30.0,40.0\n0,2,50.0,60.0\n0,3,70.0,80.0\n"
            "5,1,-15.0,25.0\n"
        )
        cfg = micro_cfg(trace_csv=str(path))
        trace = load_position_trace(path)
        run = ScenarioRun(cfg, run_seed=derive_seed(cfg.master_seed, 0), trace=trace,
                          coverage_only=True)
        run.step(0)
        assert Point2D(*run.true_xy[0]) == Point2D(10.0, 20.0)
        assert Point2D(*run.true_xy[1]) == Point2D(30.0, 40.0)
        for t in range(1, 5):
            run.step(t)
            assert Point2D(*run.true_xy[1]) == Point2D(30.0, 40.0)  # holds last
        run.step(5)
        assert Point2D(*run.true_xy[1]) == Point2D(-15.0, 25.0)
        assert Point2D(*run.true_xy[0]) == Point2D(10.0, 20.0)

    def test_initial_placement_at_the_gnb_is_drawn_again(self, monkeypatch):
        cfg = micro_cfg()
        move_seed = derive_seed(derive_seed(cfg.master_seed, 0), 1)

        def stubbed(seed):
            return ZeroFirst(make_rng(seed)) if seed == move_seed else make_rng(seed)

        monkeypatch.setattr(engine, "make_rng", stubbed)
        run = make_run(cfg)
        assert run.true_xy.tolist() == redrawn_positions(make_rng(move_seed), cfg)
        for t in range(3):
            run.step(t)

    def test_moved_ue_at_the_gnb_is_drawn_again(self):
        cfg = micro_cfg()
        run = make_run(cfg)
        for t in range(10):
            run.step(t)
        expected = redrawn_positions(copy.deepcopy(run.move_rng), cfg)
        run.move_rng = ZeroFirst(run.move_rng)
        run.step(10)
        assert run.true_xy.tolist() == expected

    def test_trace_validation(self, tmp_path):
        bad_header = tmp_path / "bad1.csv"
        bad_header.write_text("tti,ue,x,y\n0,0,1,2\n")
        with pytest.raises(ConfigError):
            load_position_trace(bad_header)
        unsorted = tmp_path / "bad2.csv"
        unsorted.write_text("tti,ue_id,x_m,y_m\n5,0,1,2\n0,0,1,2\n")
        with pytest.raises(ConfigError):
            load_position_trace(unsorted)


class TestStepTti:
    # frozen 20-TTI trace, generated once from this exact configuration
    # and audited by hand: coverage 0 over TTIs 0-9 matches the centroid
    # geometry (every UE sits 26-35 degrees off its beam), positions jump
    # exactly at TTI 10 with the coverage and a backlog-drain spike
    # (22 packets, head-of-line age 6.73 TTIs) following in the same TTI
    GOLDEN = [
        (0, 0.0, 256, 0.0),
        (1, 0.0, 256, 0.0),
        (2, 0.0, 256, 0.0),
        (3, 0.0, 256, 1.0),
        (4, 0.0, 256, 2.0),
        (5, 0.0, 256, 2.0),
        (6, 0.0, 256, 3.0),
        (7, 0.0, 256, 4.0),
        (8, 0.0, 256, 3.0),
        (9, 0.0, 256, 3.0),
        (10, 0.5, 5632, 6.7272727272727275),
        (11, 0.5, 2816, 3.272727272727273),
        (12, 0.5, 1280, 4.4),
        (13, 0.5, 1536, 3.0),
        (14, 0.5, 1536, 2.0),
        (15, 0.5, 1280, 1.8),
        (16, 0.5, 1536, 1.1666666666666667),
        (17, 0.5, 2048, 10.5),
        (18, 0.5, 1280, 0.0),
        (19, 0.5, 512, 0.0),
    ]

    def test_micro_run_matches_golden_trace(self):
        run = make_run(micro_cfg())
        got = [(t, *run.step(t)) for t in range(20)]
        assert got == self.GOLDEN

    def test_step_returns_a_float_an_int_and_a_float(self):
        # the run's array columns and `fmt` take these Python types, in this order
        for cfg, coverage_only in (
            (micro_cfg(), False),
            (micro_cfg(load_bps=0.0), False),  # nothing delivered: the mean delay is nan
            (micro_cfg(), True),
        ):
            run = make_run(cfg, coverage_only=coverage_only)
            for t in range(12):
                values = run.step(t)
                assert type(values) is tuple
                assert [type(v) for v in values] == [float, int, float]
                if coverage_only or cfg.load_bps == 0.0:
                    assert values[1] == 0 and math.isnan(values[2])

    def test_zero_traffic_still_rewards(self):
        cfg = micro_cfg(load_bps=0.0)
        run = Scheduled(cfg, run_seed=derive_seed(cfg.master_seed, 0))
        for t in range(5):
            _, delivered_bits, _ = run.step(t)
            assert delivered_bits == 0
            assert len(run.rewards) == 2 * 6  # beams x rbgs
            assert all(0.0 < x <= 1.0 for x in run.rewards)

    def test_single_ue_single_beam_gets_every_rbg(self):
        cfg = micro_cfg(n_ues=1, n_clusters=1, n_beams=1)
        run = Scheduled(cfg, run_seed=derive_seed(cfg.master_seed, 0))
        for t in range(5):
            run.step(t)
            assert run.allocations == [[0] * 6]

    def test_conservation_delivered_vs_allocated(self):
        cfg = micro_cfg()
        run = Scheduled(cfg, run_seed=derive_seed(cfg.master_seed, 0))
        for t in range(30):
            _, delivered_bits, _ = run.step(t)
            allocated = sum(run.budgets.values())
            assert delivered_bits <= allocated + 1e-9

    def test_queue_conservation_every_tti(self):
        run = make_run(micro_cfg())
        for t in range(30):
            run.step(t)
            for queue in run.queues:
                assert queue.arrivals_total == queue.delivered_packets + len(queue)

    def test_serve_meets_only_queued_packets(self, monkeypatch):
        # a UE whose queue is empty is not served: the call would deliver nothing
        lengths = []
        serve = PacketQueue.serve

        def counted(queue, budget_bits, now):
            lengths.append(len(queue))
            return serve(queue, budget_bits, now)

        monkeypatch.setattr(PacketQueue, "serve", counted)
        make_run(ScenarioConfig(tti_count=200)).run()
        assert lengths and min(lengths) > 0

    def test_beam_removal_never_gains_bits(self):
        # a run covered at every TTI drains essentially all arrivals, so
        # serving only a beam subset of the same seeded run cannot beat
        # its cumulative delivered bits (seed chosen for full coverage)
        cfg = micro_cfg(
            scenario=Scenario.KMEANS_EXACT,
            beam_width_deg=150.0,
            load_bps=2e6,
            master_seed=31340,
        )
        full = make_run(cfg)
        full_records = [full.step(t) for t in range(40)]
        assert all(coverage == 1.0 for coverage, _, _ in full_records)
        reduced = FirstBeamServed(cfg, run_seed=derive_seed(cfg.master_seed, 0))
        reduced_records = [reduced.step(t) for t in range(40)]
        assert sum(bits for _, bits, _ in reduced_records) <= sum(
            bits for _, bits, _ in full_records
        )


class TestRunScenario:
    def test_single_run_aggregate_equals_run(self):
        cfg = micro_cfg(runs=1)
        rep = run_scenario(cfg)
        assert rep.aggregate["coverage_rate"][0] == rep.summaries[0].coverage_rate
        assert math.isnan(rep.aggregate["coverage_rate"][1])

    def test_identical_master_seed_identical_report(self, tmp_path):
        cfg = micro_cfg(runs=2, tti_count=15)
        rep1 = run_scenario(cfg)
        rep2 = run_scenario(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_per_tti_csv(rep1, p1)
        write_per_tti_csv(rep2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        s1, s2 = tmp_path / "sa.csv", tmp_path / "sb.csv"
        write_summary_csv(rep1, s1)
        write_summary_csv(rep2, s2)
        assert s1.read_bytes() == s2.read_bytes()

    def test_aggregate_uses_student_t(self):
        cfg = micro_cfg(runs=3, tti_count=10)
        rep = run_scenario(cfg)
        values = [s.coverage_rate for s in rep.summaries]
        from mmwavesim.stats import confidence_interval

        assert rep.aggregate["coverage_rate"] == confidence_interval(values)

    def test_exact_scenario_forces_zero_error(self):
        cfg = micro_cfg(scenario=Scenario.KMEANS_EXACT, error_rmse_m=8.0)
        run = make_run(cfg)
        for u in range(cfg.n_ues):
            assert Point2D(*run.believed_xy[u]) == Point2D(*run.true_xy[u])

    @pytest.mark.parametrize("informative", [False, True])
    def test_exact_scenario_draws_no_report(self, informative):
        # nothing reads an exact run's report, so its error stream stays as seeded
        cfg = micro_cfg(scenario=Scenario.KMEANS_EXACT, informative_pdf=informative, tti_count=25)
        run = make_run(cfg)
        run.run()
        seeded = make_rng(derive_seed(derive_seed(cfg.master_seed, 0), 2))
        assert run.error_rng.bit_generator.state == seeded.bit_generator.state
        assert make_run(micro_cfg()).error_rng.bit_generator.state != seeded.bit_generator.state

    def test_csv_schema(self, tmp_path):
        cfg = micro_cfg(runs=2, tti_count=5)
        rep = run_scenario(cfg)
        p = tmp_path / "r.csv"
        write_per_tti_csv(rep, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "run,tti,coverage_rate,delivered_bits,mean_delay_ttis"
        assert len(lines) == 1 + 2 * 5
        s = tmp_path / "s.csv"
        write_summary_csv(rep, s)
        slines = s.read_text().splitlines()
        assert slines[0] == "scenario,metric,mean,ci95_halfwidth"
        assert [l.split(",")[1] for l in slines[1:]] == [
            "coverage_rate",
            "sum_rate_bps",
            "mean_delay_ttis",
        ]

    @staticmethod
    def kept_bytes(tti_count):
        """The traced bytes a coverage-only run allocates and still holds
        while its return value is alive."""
        run = make_run(micro_cfg(tti_count=tti_count), coverage_only=True)
        tracemalloc.start()
        try:
            kept = run.run()  # noqa: F841 - held while the bytes are read
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def test_kept_results_grow_by_at_most_32_bytes_per_tti(self):
        # a TTI's results are three numbers, 24 bytes, plus the columns' spare
        # capacity; a record object per TTI kept about 180 here
        per_tti = (self.kept_bytes(20_000) - self.kept_bytes(2_000)) / 18_000
        assert per_tti <= 32

    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(ConfigError):
            run_scenario(micro_cfg(n_clusters=9))  # exceeds n_ues
        with pytest.raises(ConfigError):
            run_scenario(micro_cfg(beam_width_deg=250.0))


class TestCoverageOnlyPath:
    def test_positions_match_full_run(self):
        cfg = micro_cfg()
        full = make_run(cfg)
        cov = make_run(cfg, coverage_only=True)
        for t in range(25):
            full.step(t)
            cov.step(t)
            for uf, uc in zip(full.true_xy.tolist(), cov.true_xy.tolist()):
                assert uf == uc

    def test_coverage_matches_full_run(self):
        cfg = micro_cfg()
        full = make_run(cfg)
        cov = make_run(cfg, coverage_only=True)
        for t in range(25):
            assert full.step(t)[0] == cov.step(t)[0]

    def test_mean_coverage_helper(self):
        cfg = micro_cfg(tti_count=20)
        direct = make_run(cfg, coverage_only=True)
        expected = float(np.mean([direct.step(t)[0] for t in range(20)]))
        assert mean_coverage(cfg) == expected


class TestScenarioDifferences:
    def test_scenarios_share_true_positions_under_one_seed(self):
        runs = {
            scen: make_run(micro_cfg(scenario=scen), coverage_only=True)
            for scen in Scenario
        }
        for t in range(25):
            positions = []
            for run in runs.values():
                run.step(t)
                positions.append(run.true_xy.tolist())
            assert positions[0] == positions[1] == positions[2]

    def test_disk_pdf_scenarios_cluster_identically(self):
        # symmetric disk uncertainty: expected-distance clustering of the
        # PDFs equals plain clustering of the reported centers, so whole
        # runs (scheduling and learning included) agree; repr tells -0.0
        # from 0.0 and lets a nan delay equal itself
        rk, ru = [
            run_scenario(micro_cfg(scenario=s, runs=2, tti_count=45, informative_pdf=False))
            for s in (Scenario.KMEANS_ERROR, Scenario.UKMEANS_ERROR)
        ]
        assert repr(rk.records) == repr(ru.records)
        assert repr(rk.summaries) == repr(ru.summaries)
        assert repr(rk.aggregate) == repr(ru.aggregate)
