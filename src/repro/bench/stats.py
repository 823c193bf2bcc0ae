"""The one percentile rule every bench section reports with."""

from __future__ import annotations

import statistics


def p50(samples) -> float:
    """The median of ``samples``; 0.0 when there are none."""
    return statistics.median(samples) if samples else 0.0


def p95(samples) -> float:
    """Nearest-rank 95th percentile: the sorted sample at index
    ``round(0.95 * (n - 1))``; 0.0 when there are none."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[round(0.95 * (len(ordered) - 1))]


class Latencies:
    """``p50_us``/``p95_us`` of a result's ``latencies_us`` samples."""

    latencies_us: list[float]

    @property
    def p50_us(self) -> float:
        return p50(self.latencies_us)

    @property
    def p95_us(self) -> float:
        return p95(self.latencies_us)
