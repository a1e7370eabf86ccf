import pytest

from mmwavesim.engine import ScenarioConfig
from mmwavesim.errors import ConfigError
from mmwavesim.seeding import make_rng
from mmwavesim.traffic import PacketQueue, generate_arrivals


class TestArrivals:
    def test_rate_4mbps_32byte(self):
        cfg = ScenarioConfig(load_bps=4e6, packet_size_bytes=32, tti_duration_s=1.25e-4)
        assert cfg.arrivals_per_tti == pytest.approx(1.953125, rel=1e-15)  # 15625 packets/s
        # the rate in packets per second, then times the TTI: this float order is pinned
        assert cfg.arrivals_per_tti == 4e6 / 256 * 1.25e-4

    def test_zero_load_never_arrives(self):
        rng = make_rng(0)
        state = rng.bit_generator.state
        assert ScenarioConfig(load_bps=0.0).arrivals_per_tti == 0.0
        assert all(generate_arrivals(0.0, rng) == 0 for _ in range(1000))
        assert rng.bit_generator.state == state  # no draw at zero load

    def test_empirical_mean_matches_rate(self):
        mean = ScenarioConfig(load_bps=4e6).arrivals_per_tti
        rng = make_rng(7)
        n = 1_000_000
        total = sum(generate_arrivals(mean, rng) for _ in range(n))
        assert abs(total / n - mean) / mean < 0.01

    def test_determinism_under_seed(self):
        mean = ScenarioConfig(load_bps=2e6).arrivals_per_tti
        rng1 = make_rng(42)
        seq1 = [generate_arrivals(mean, rng1) for _ in range(200)]
        rng2 = make_rng(42)
        seq2 = [generate_arrivals(mean, rng2) for _ in range(200)]
        assert seq1 == seq2


class TestQueue:
    def test_serve_both_packets_in_budget(self):
        q = PacketQueue(256)
        q.push(0)
        q.push(0)
        assert q.serve(512, 1) == [1, 1]
        assert q.delivered_packets == 2
        assert len(q) == 0

    def test_whole_packet_rule(self):
        q = PacketQueue(256)
        q.push(0)
        assert q.serve(255, 3) == []
        assert len(q) == 1

    def test_recorded_delay(self):
        q = PacketQueue(256)
        q.push(5)
        assert q.serve(256, 9) == [4]
        assert q.delivered_delay_sum == 4

    def test_fifo_order(self):
        q = PacketQueue(100)
        q.push(1)
        q.push(2)
        q.push(3)
        assert q.serve(250, 4) == [3, 2]  # the packets of TTIs 1 and 2
        assert q.head_of_line_delay(4) == 1  # the packet of TTI 3 is left

    def test_negative_budget_rejected(self):
        q = PacketQueue(256)
        with pytest.raises(ConfigError):
            q.serve(-1, 0)


class TestHeadOfLineDelay:
    def test_empty_queue_floor(self):
        assert PacketQueue(256).head_of_line_delay(100) == 1

    def test_just_arrived_clamped(self):
        q = PacketQueue(256)
        q.push(10)
        assert q.head_of_line_delay(10) == 1

    def test_aged_packet(self):
        q = PacketQueue(256)
        q.push(3)
        assert q.head_of_line_delay(10) == 7


def test_conservation_over_random_run():
    cfg = ScenarioConfig(load_bps=8e6)
    rng = make_rng(5)
    serve_rng = make_rng(6)
    q = PacketQueue(8 * cfg.packet_size_bytes)
    for t in range(2000):
        for _ in range(generate_arrivals(cfg.arrivals_per_tti, rng)):
            q.push(t)
        q.serve(float(serve_rng.integers(0, 2000)), t)
        assert q.arrivals_total == q.delivered_packets + len(q)


def test_config_validation():
    with pytest.raises(ConfigError, match="load_bps"):
        ScenarioConfig(load_bps=-1.0).validate()
    with pytest.raises(ConfigError, match="packet_size_bytes"):
        ScenarioConfig(load_bps=1.0, packet_size_bytes=0).validate()
