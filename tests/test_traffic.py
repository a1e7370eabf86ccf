import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavesim.beams import AntennaConfig
from mmwavesim.engine import ARRIVAL_BLOCK, ScenarioConfig, ScenarioRun
from mmwavesim.errors import ConfigError
from mmwavesim.seeding import derive_seed, make_rng
from mmwavesim.traffic import PacketQueue, generate_arrivals
from reference import LoopQueue


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
        assert generate_arrivals(0.0, rng, 1000).tolist() == [0] * 1000
        assert rng.bit_generator.state == state  # no draw at zero load

    def test_empirical_mean_matches_rate(self):
        mean = ScenarioConfig(load_bps=4e6).arrivals_per_tti
        rng = make_rng(7)
        n = 1_000_000
        total = int(generate_arrivals(mean, rng, n).sum())
        assert abs(total / n - mean) / mean < 0.01

    def test_determinism_under_seed(self):
        mean = ScenarioConfig(load_bps=2e6).arrivals_per_tti
        rng1 = make_rng(42)
        seq1 = [generate_arrivals(mean, rng1, 50).tolist() for _ in range(4)]
        rng2 = make_rng(42)
        seq2 = [generate_arrivals(mean, rng2, 50).tolist() for _ in range(4)]
        assert seq1 == seq2


# either side of numpy's switch from multiplication to PTRS at mean 10
MEANS = [0.0, 1e-3, 1.953125, 9.99, 10.0, 1e4]


@settings(max_examples=120, deadline=None)
@given(
    mean=st.sampled_from(MEANS),
    counts=st.lists(st.integers(0, 40), min_size=1, max_size=4),
    seed=st.integers(0, 2**64 - 1),
)
def test_block_equals_scalar_draws(mean, counts, seed):
    """Consecutive blocks give the scalar `poisson(mean)` draws in turn, and
    leave the generator where those draws leave it; mean 0 draws nothing."""
    block_rng, scalar_rng = make_rng(seed), make_rng(seed)
    state = block_rng.bit_generator.state
    for count in counts:
        got = generate_arrivals(mean, block_rng, count)
        want = [int(scalar_rng.poisson(mean)) for _ in range(count)]
        assert got.tolist() == want
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state
    if mean == 0.0:
        assert block_rng.bit_generator.state == state


def test_run_takes_one_row_per_step_in_call_order():
    """Each `_arrivals` call queues the next scalar draw of every UE's traffic
    generator, stamped with the TTI it is given, across block boundaries and
    whatever that TTI is."""
    cfg = ScenarioConfig(n_ues=3, load_bps=8e6, runs=1)
    seed = derive_seed(cfg.master_seed, 0)
    run = ScenarioRun(cfg, run_seed=seed)
    rngs = [make_rng(derive_seed(seed, 100 + u)) for u in range(cfg.n_ues)]
    ttis = [7] * 3 + list(range(2 * ARRIVAL_BLOCK + 5, 0, -1))
    for t in ttis:
        before = [q.arrivals_total for q in run.queues]
        run._arrivals(t)
        for u, queue in enumerate(run.queues):
            count = int(rngs[u].poisson(cfg.arrivals_per_tti))
            assert queue.arrivals_total - before[u] == count
            assert list(queue._arrival_ttis)[len(queue) - count :] == [t] * count
    assert sum(q.arrivals_total for q in run.queues) > len(ttis)


class TestQueue:
    def test_serve_both_packets_in_budget(self):
        q = PacketQueue(256)
        q.push(0, 2)
        assert q.serve(512, 1) == (2, 2)
        assert q.delivered_packets == 2
        assert len(q) == 0

    def test_whole_packet_rule(self):
        q = PacketQueue(256)
        q.push(0, 1)
        assert q.serve(255, 3) == (0, 0)
        assert len(q) == 1

    def test_recorded_delay(self):
        q = PacketQueue(256)
        q.push(5, 1)
        assert q.serve(256, 9) == (1, 4)
        assert q.delivered_delay_sum == 4

    def test_fifo_order(self):
        q = PacketQueue(100)
        q.push(1, 1)
        q.push(2, 1)
        q.push(3, 1)
        assert q.serve(250, 4) == (2, 5)  # the packets of TTIs 1 and 2
        assert q.head_of_line_delay(4) == 1  # the packet of TTI 3 is left

    def test_push_counts_packets(self):
        q = PacketQueue(100)
        q.push(1, 2)
        q.push(2, 0)
        q.push(3, 3)
        assert (len(q), q.arrivals_total) == (5, 5)
        assert q.serve(400, 5) == (4, 12)
        assert q.head_of_line_delay(5) == 2


def budgets(bits, queued):
    """Budgets of exactly one packet, of exactly the `queued` packets' bits
    and one ulp below them; at and just below k whole packets (k = 0 gives
    -1.0), 0, 2**53 and above, inf, nan and any float up to 40 packets."""
    k = st.integers(0, 40)
    return st.one_of(
        st.sampled_from([float(bits), float(queued * bits), math.nextafter(queued * bits, 0.0)]),
        k.map(lambda k: float(k * bits)),
        k.map(lambda k: k * bits - 1.0),
        k.map(lambda k: math.nextafter(k * bits, 0.0)),
        st.just(0.0),
        st.floats(2.0**53, 1e300),
        st.sampled_from([math.inf, math.nan]),
        st.floats(0.0, 40.0 * bits),
    )


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_counted_serve_equals_the_per_packet_loop(data):
    """Call by call, the counted `serve` returns what serving one packet at
    a time returns, and leaves the same counters, queue and head-of-line delay;
    the first call serves the empty queue."""
    bits = 8 * data.draw(st.integers(1, 65535), label="packet_size_bytes")
    counted, looped = PacketQueue(bits), LoopQueue(bits)
    now = 0
    for call in range(data.draw(st.integers(1, 16), label="calls")):
        now += data.draw(st.integers(0, 3))
        if call and data.draw(st.booleans(), label="push"):
            count = data.draw(st.integers(0, 30), label="count")
            counted.push(now, count)
            looped.push(now, count)
        else:
            budget = data.draw(budgets(bits, len(looped)), label="budget")
            assert counted.serve(budget, now) == looped.serve(budget, now)
        assert vars(counted) == vars(looped)
        assert counted.head_of_line_delay(now) == looped.head_of_line_delay(now)


def test_an_infinite_rbg_bandwidth_is_rejected():
    """At a subcarrier spacing whose RBG bandwidth overflows to inf, a link with
    log2(1 + SINR) = 0 would have inf * 0 = nan bits and every budget would be
    nan, so the antenna is rejected; the largest finite bandwidth is kept, and
    there a budget is finite or inf, never nan."""
    with pytest.raises(ConfigError, match="RBG bandwidth") as info:
        AntennaConfig(subcarrier_spacing_hz=1e308, tx_power_dbm=-300.0, noise_power_dbm=300.0)
    assert info.value.keys == ("subcarrier_spacing_hz", "rbs_per_rbg")
    largest = math.nextafter(math.inf, 0) / 12 / 2  # 12 subcarriers times the default 2 RBs
    while not math.isfinite(12.0 * largest * 2):
        largest = math.nextafter(largest, 0)
    antenna = AntennaConfig(subcarrier_spacing_hz=largest, tx_power_dbm=-300.0, noise_power_dbm=300.0)
    cfg = ScenarioConfig(tti_count=20, runs=1, antenna=antenna)
    run = ScenarioRun(cfg, run_seed=derive_seed(cfg.master_seed, 0))
    (_, bits, _), _ = run.run()
    assert all(link.bits == 0.0 for table in run.geometry.links for link in table.values())
    assert set(bits) == {0}


class TestHeadOfLineDelay:
    def test_empty_queue_floor(self):
        assert PacketQueue(256).head_of_line_delay(100) == 1

    def test_just_arrived_clamped(self):
        q = PacketQueue(256)
        q.push(10, 1)
        assert q.head_of_line_delay(10) == 1

    def test_aged_packet(self):
        q = PacketQueue(256)
        q.push(3, 1)
        assert q.head_of_line_delay(10) == 7


def test_conservation_over_random_run():
    cfg = ScenarioConfig(load_bps=8e6)
    rng = make_rng(5)
    serve_rng = make_rng(6)
    q = PacketQueue(8 * cfg.packet_size_bytes)
    for t, count in enumerate(generate_arrivals(cfg.arrivals_per_tti, rng, 2000)):
        q.push(t, int(count))
        q.serve(float(serve_rng.integers(0, 2000)), t)
        assert q.arrivals_total == q.delivered_packets + len(q)


def test_config_validation():
    with pytest.raises(ConfigError, match="load_bps"):
        ScenarioConfig(load_bps=-1.0).validate()
    with pytest.raises(ConfigError, match="packet_size_bytes"):
        ScenarioConfig(load_bps=1.0, packet_size_bytes=0).validate()
