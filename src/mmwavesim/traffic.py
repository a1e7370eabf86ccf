"""Poisson packet arrivals and per-UE FIFO queues with delay accounting."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import check_fields, ranged

__all__ = ["TrafficConfig", "Packet", "PacketQueue", "arrival_rate_pps", "generate_arrivals"]


@dataclass(frozen=True)
class TrafficConfig:
    load_bps: float = ranged(lo=0.0)  # offered load per UE
    packet_size_bytes: int = ranged(32, lo=1)

    def __post_init__(self):
        check_fields(self)

    @property
    def packet_size_bits(self) -> int:
        return self.packet_size_bytes * 8


@dataclass(frozen=True)
class Packet:
    size_bits: int
    arrival_tti: int


def arrival_rate_pps(cfg: TrafficConfig) -> float:
    """Packet arrival rate in packets per second."""
    return cfg.load_bps / cfg.packet_size_bits


def generate_arrivals(
    cfg: TrafficConfig, tti_duration_s: float, rng: np.random.Generator
) -> int:
    """Arrivals in one TTI: Poisson with mean rate * tti_duration."""
    lam = arrival_rate_pps(cfg) * tti_duration_s
    if lam == 0.0:
        return 0
    return int(rng.poisson(lam))


class PacketQueue:
    """FIFO queue of whole packets with cumulative delivery counters.

    Queues are unbounded (no drops); a packet leaves only when the
    budget of one TTI covers its full size. `head_of_line_delay` is
    floored at one TTI so latency-based rewards never divide by zero.
    """

    def __init__(self):
        self._packets = deque()
        self.arrivals_total = 0
        self.delivered_bits = 0
        self.delivered_delay_sum = 0
        self.delivered_packets = 0

    def __len__(self):
        return len(self._packets)

    def push(self, size_bits: int, arrival_tti: int) -> None:
        self._packets.append(Packet(size_bits, arrival_tti))
        self.arrivals_total += 1

    def serve(self, budget_bits: float, now: int):
        """Drain whole packets FIFO within the bit budget.

        Returns the drained packets as (size_bits, arrival_tti, delay)
        tuples; leftover budget is discarded.
        """
        if budget_bits < 0:
            raise ConfigError("budget_bits must be >= 0")
        drained = []
        remaining = budget_bits
        while self._packets and self._packets[0].size_bits <= remaining:
            pkt = self._packets.popleft()
            remaining -= pkt.size_bits
            delay = now - pkt.arrival_tti
            drained.append((pkt.size_bits, pkt.arrival_tti, delay))
            self.delivered_bits += pkt.size_bits
            self.delivered_delay_sum += delay
            self.delivered_packets += 1
        return drained

    def head_of_line_delay(self, now: int) -> int:
        """TTIs the oldest packet has waited, floored at 1 (also when empty)."""
        if not self._packets:
            return 1
        return max(1, now - self._packets[0].arrival_tti)
