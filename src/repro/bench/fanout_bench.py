"""Fan-out benchmark: one publisher, N subscribers, one UpcallGroup.

The publisher is embedded in the server process (§4.2 embedding) and
posts straight into the hub's :class:`~repro.cluster.UpcallGroup`;
each subscriber is a real ClamClient with a registered RUC, so every
delivery crosses the wire on that subscriber's own upcall stream.

Every event carries the publisher's ``time.perf_counter()`` stamp and
each subscriber handler samples the clock on arrival — publisher and
subscribers share one process, so the stamps share one clock and the
difference is honest end-to-end delivery latency (enqueue, pump,
bundle, wire, client dispatch, handler).

Reported per N: drained posts/second, total deliveries/second, and
the p50/p95 of per-delivery latency.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable

from repro.bench.stats import Latencies
from repro.client import ClamClient
from repro.cluster import UpcallGroup
from repro.server import ClamServer
from repro.stubs import RemoteInterface

SUBSCRIBER_COUNTS = (1, 10, 50)


class Hub(RemoteInterface):
    """Host-embedded fan-out hub: subscribers join, the host posts."""

    def __init__(self):
        self.group = UpcallGroup("bench", queue_limit=4096)

    def join(self, proc: Callable[[int, float], None]) -> int:
        return self.group.subscribe(proc)


@dataclass
class FanoutResult(Latencies):
    subscribers: int
    events: int
    elapsed_s: float
    latencies_us: list[float]

    @property
    def posts_per_sec(self) -> float:
        return self.events / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def deliveries_per_sec(self) -> float:
        return len(self.latencies_us) / self.elapsed_s if self.elapsed_s else 0.0


async def _measure_case(
    n_subscribers: int, n_events: int, base_dir: str
) -> FanoutResult:
    server = ClamServer(degrade_upcalls=True)
    hub = Hub()
    server.publish("bench.hub", hub)
    address = await server.start(f"unix://{base_dir}/fanout-{n_subscribers}.sock")

    clients = []
    latencies_us: list[float] = []
    try:
        for _ in range(n_subscribers):
            client = await ClamClient.connect(address)
            proxy = await client.lookup(Hub, "bench.hub")

            def handler(seq: int, stamp: float) -> None:
                latencies_us.append((time.perf_counter() - stamp) * 1e6)

            await proxy.join(handler)
            clients.append(client)

        # Warm the path (connects, bundler plans, task pool) off-clock.
        hub.group.post(-1, time.perf_counter())
        await hub.group.flush()
        latencies_us.clear()

        start = time.perf_counter()
        for seq in range(n_events):
            hub.group.post(seq, time.perf_counter())
            # Yield so pumps interleave with posting, as a live event
            # source would; without this the queue-then-drain shape
            # measures queueing, not fan-out.
            await asyncio.sleep(0)
        await hub.group.flush(timeout=60.0)
        elapsed = time.perf_counter() - start

        return FanoutResult(
            subscribers=n_subscribers,
            events=n_events,
            elapsed_s=elapsed,
            latencies_us=latencies_us,
        )
    finally:
        for client in clients:
            await client.close()
        await server.shutdown()


async def run(
    base_dir: str, *, counts=SUBSCRIBER_COUNTS, n_events: int = 200
) -> list[FanoutResult]:
    return [await _measure_case(n, n_events, base_dir) for n in counts]


async def record(base_dir: str, quick: bool = False) -> dict[str, dict[str, float]]:
    """The machine-readable slice for ``BENCH_rpc.json``."""
    n_events = 40 if quick else 200
    results = await run(base_dir, n_events=n_events)
    return {
        f"fanout_subs_{result.subscribers}": {
            "events": result.events,
            "posts_per_sec": round(result.posts_per_sec, 1),
            "deliveries_per_sec": round(result.deliveries_per_sec, 1),
            "p50_delivery_us": round(result.p50_us, 1),
            "p95_delivery_us": round(result.p95_us, 1),
        }
        for result in results
    }


def main(base_dir: str) -> None:
    print("== fan-out: 1 publisher, N subscribers, one UpcallGroup ==")
    print("   (per-event delivery latency: post() to subscriber handler)")
    results = asyncio.run(run(base_dir))
    print(f"{'subs':>5} {'events':>7} {'posts/s':>10} "
          f"{'deliv/s':>10} {'p50 us':>9} {'p95 us':>9}")
    for result in results:
        print(
            f"{result.subscribers:>5} {result.events:>7} "
            f"{result.posts_per_sec:>10.0f} {result.deliveries_per_sec:>10.0f} "
            f"{result.p50_us:>9.0f} {result.p95_us:>9.0f}"
        )
