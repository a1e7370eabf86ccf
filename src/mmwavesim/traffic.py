"""Poisson packet arrivals and per-UE FIFO queues with delay accounting.

Every packet of a run has the same size, so a queue holds only the
arrival TTI of each packet it has not yet delivered.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["PacketQueue", "generate_arrivals"]


def generate_arrivals(mean: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Arrivals in `count` TTIs: one Poisson call, equal to `count` scalar draws; none at mean 0."""
    return rng.poisson(mean, count)


class PacketQueue:
    """FIFO queue of whole packets of `packet_bits` each, with cumulative
    delivery counters.

    Queues are unbounded (no drops); a packet leaves only when the
    budget of one TTI covers its full size. `head_of_line_delay` is
    floored at one TTI so latency-based rewards never divide by zero.
    """

    def __init__(self, packet_bits: int):
        self.packet_bits = packet_bits
        self._arrival_ttis = deque()
        self.arrivals_total = 0
        self.delivered_delay_sum = 0
        self.delivered_packets = 0

    def __len__(self):
        return len(self._arrival_ttis)

    def push(self, arrival_tti: int, count: int) -> None:
        """Enqueue `count` packets that arrived at `arrival_tti`."""
        self._arrival_ttis.extend([arrival_tti] * count)
        self.arrivals_total += count

    def serve(self, budget_bits: float, now: int) -> list:
        """Drain whole packets FIFO within the bit budget and return their
        delays in TTIs; leftover budget is discarded."""
        delays = []
        remaining = budget_bits
        while self._arrival_ttis and self.packet_bits <= remaining:
            remaining -= self.packet_bits
            delays.append(now - self._arrival_ttis.popleft())
        self.delivered_delay_sum += sum(delays)
        self.delivered_packets += len(delays)
        return delays

    def head_of_line_delay(self, now: int) -> int:
        """TTIs the oldest packet has waited, floored at 1 (also when empty)."""
        if not self._arrival_ttis:
            return 1
        return max(1, now - self._arrival_ttis[0])
