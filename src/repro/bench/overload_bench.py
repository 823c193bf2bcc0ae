"""Overload benchmark: an open-loop producer vs a slow server.

The producer fires a burst of synchronous calls all at once — no
closed-loop pacing — at a server whose handler costs ~1 ms.  Run
twice, the scenario quantifies what admission control buys:

- **without** it, every call is accepted and queues; goodput is the
  server's capacity but the p95 latency of *served* calls includes
  the whole queue ahead of them;
- **with** a token bucket, the excess sheds before execution
  (retryable, with a ``retry_after_ms`` hint) and the served calls'
  latency collapses to roughly service time.

Reported per case: offered/served/shed counts, goodput (served calls
per second of wall time), and the p50/p95 latency of served calls.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.bench.stats import Latencies
from repro.client import ClamClient
from repro.errors import ServerOverloadedError
from repro.flow import AdmissionPolicy, TokenBucket
from repro.server import ClamServer
from repro.stubs import RemoteInterface

#: Simulated per-call service time (seconds).
SERVICE_TIME = 0.001


class Grinder(RemoteInterface):
    def __init__(self):
        self.ground = 0

    async def grind(self, value: int) -> int:
        await asyncio.sleep(SERVICE_TIME)
        self.ground += 1
        return self.ground


@dataclass
class OverloadResult(Latencies):
    case: str
    offered: int
    served: int
    shed: int
    elapsed_s: float
    latencies_us: list[float]

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def goodput_per_sec(self) -> float:
        return self.served / self.elapsed_s if self.elapsed_s else 0.0


def _cases(offered: int) -> list[tuple[str, AdmissionPolicy | None]]:
    # The bucket's sustained rate is far under the open-loop burst, so
    # roughly ``burst`` calls are served fast and the rest shed.
    return [
        ("no_admission", None),
        ("token_bucket", TokenBucket(50.0, burst=max(10, offered // 8))),
    ]


async def _measure_case(
    case: str, policy: AdmissionPolicy | None, offered: int, base_dir: str
) -> OverloadResult:
    server = ClamServer(admission=policy)
    server.publish("bench.grinder", Grinder())
    address = await server.start(f"unix://{base_dir}/overload-{case}.sock")
    client = await ClamClient.connect(address)
    served = shed = 0
    latencies_us: list[float] = []
    try:
        proxy = await client.lookup(Grinder, "bench.grinder")
        await proxy.grind(-1)  # warm the path (connect, plans) off-clock

        async def one(i: int) -> None:
            nonlocal served, shed
            started = time.perf_counter()
            try:
                await proxy.grind(i)
            except ServerOverloadedError:
                shed += 1
                return
            served += 1
            latencies_us.append((time.perf_counter() - started) * 1e6)

        start = time.perf_counter()
        await asyncio.gather(*(one(i) for i in range(offered)))
        elapsed = time.perf_counter() - start
        return OverloadResult(
            case=case,
            offered=offered,
            served=served,
            shed=shed,
            elapsed_s=elapsed,
            latencies_us=latencies_us,
        )
    finally:
        await client.close()
        await server.shutdown()


async def run(base_dir: str, *, offered: int = 400) -> list[OverloadResult]:
    return [
        await _measure_case(case, policy, offered, base_dir)
        for case, policy in _cases(offered)
    ]


async def record(base_dir: str, quick: bool = False) -> dict[str, dict[str, float]]:
    """The machine-readable slice for ``BENCH_rpc.json``."""
    offered = 120 if quick else 400
    results = await run(base_dir, offered=offered)
    return {
        f"overload_{result.case}": {
            "offered": result.offered,
            "served": result.served,
            "shed_rate": round(result.shed_rate, 3),
            "goodput_per_sec": round(result.goodput_per_sec, 1),
            "p50_latency_us": round(result.p50_us, 1),
            "p95_latency_us": round(result.p95_us, 1),
        }
        for result in results
    }


def main(base_dir: str) -> None:
    print("== overload: open-loop producer vs slow server "
          f"(~{SERVICE_TIME * 1000:.0f}ms/call) ==")
    print("   (latency percentiles are over *served* calls only)")
    results = asyncio.run(run(base_dir))
    print(f"{'case':>14} {'offered':>8} {'served':>7} {'shed':>6} "
          f"{'goodput/s':>10} {'p50 us':>9} {'p95 us':>9}")
    for result in results:
        print(
            f"{result.case:>14} {result.offered:>8} {result.served:>7} "
            f"{result.shed:>6} {result.goodput_per_sec:>10.0f} "
            f"{result.p50_us:>9.0f} {result.p95_us:>9.0f}"
        )
