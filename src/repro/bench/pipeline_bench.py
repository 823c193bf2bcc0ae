"""Pipeline benchmark: the fan-out latency decomposed into stages.

The fan-out benchmark reports an end-to-end figure — publisher
``post()`` stamp to subscriber handler entry — that is three orders of
magnitude above the raw wire cost.  This suite answers *where the time
goes*: it reruns the fan-out shape with the stage clocks of
:mod:`repro.obs.stages` armed (a metrics-backed group, metrics-backed
clients) and reports each stage's latency budget next to the measured
total.

The coverage figure — the sum of per-stage means over the end-to-end
mean — is the suite's self-check: the named stages partition the
*measurable* delivery path, so a coverage drop flags time leaking
into an unnamed gap.  One gap is structural and honest: the wire
transit between the server's write completing and the client's reader
stamping arrival crosses processes, so no single-ended clock can
observe it.  Before batched pumps that transit was noise against
multi-millisecond totals (coverage ≈ 0.99); with sub-millisecond
totals it is a visible fraction (coverage ≈ 0.6–0.8), which is the
metric working, not failing.  The benchmark posts with an ``await
asyncio.sleep(0)`` between events (live-source shape), so the
``queue`` stage measures real pump/post interleaving — the batched
pump's whole-backlog drain is what keeps it under half the total.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.stats import p50
from repro.client import ClamClient
from repro.cluster import UpcallGroup
from repro.obs.stages import ALL_STAGES, PIPELINE_STAGES, stage_budgets
from repro.server import ClamServer
from repro.stubs import RemoteInterface

SUBSCRIBER_COUNTS = (1, 10)


class Hub(RemoteInterface):
    """Host-embedded hub, as in fanout_bench but metrics-backed."""

    __clam_local__ = ("arm",)

    def __init__(self):
        self.group: UpcallGroup | None = None

    def arm(self, metrics) -> None:
        self.group = UpcallGroup("bench", queue_limit=4096, metrics=metrics)

    def join(self, proc: Callable[[int, float], None]) -> int:
        return self.group.subscribe(proc)


@dataclass
class PipelineResult:
    subscribers: int
    events: int
    latencies_us: list[float]
    #: mean/p50/p95/count per stage, merged across server + clients.
    stages: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def total_mean_us(self) -> float:
        return statistics.fmean(self.latencies_us) if self.latencies_us else 0.0

    @property
    def total_p50_us(self) -> float:
        return p50(self.latencies_us)

    @property
    def stage_sum_mean_us(self) -> float:
        """Sum of the delivery stages' means (handler excluded: the
        end-to-end stamp is taken at handler *entry*)."""
        return sum(self.stages[s]["mean_us"] for s in PIPELINE_STAGES)

    @property
    def coverage_mean(self) -> float:
        """Share of the end-to-end mean the named stages account for."""
        total = self.total_mean_us
        return self.stage_sum_mean_us / total if total else 0.0


async def _measure_case(
    n_subscribers: int, n_events: int, base_dir: str
) -> PipelineResult:
    server = ClamServer(degrade_upcalls=True)
    hub = Hub()
    hub.arm(server.metrics)
    server.publish("bench.hub", hub)
    address = await server.start(
        f"unix://{base_dir}/pipeline-{n_subscribers}.sock"
    )

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

        # Warm the path off-clock, then zero every stage histogram so
        # the budgets cover exactly the measured events.
        hub.group.post(-1, time.perf_counter())
        await hub.group.flush()
        latencies_us.clear()
        registries = [server.metrics] + [client.metrics for client in clients]
        for registry in registries:
            registry.reset()

        for seq in range(n_events):
            hub.group.post(seq, time.perf_counter())
            await asyncio.sleep(0)
        await hub.group.flush(timeout=60.0)

        return PipelineResult(
            subscribers=n_subscribers,
            events=n_events,
            latencies_us=latencies_us,
            stages=stage_budgets(registries),
        )
    finally:
        for client in clients:
            await client.close()
        await server.shutdown()


async def run(
    base_dir: str, *, counts=SUBSCRIBER_COUNTS, n_events: int = 200
) -> list[PipelineResult]:
    return [await _measure_case(n, n_events, base_dir) for n in counts]


async def record(base_dir: str, quick: bool = False) -> dict[str, dict[str, float]]:
    """The machine-readable slice for ``BENCH_rpc.json``."""
    n_events = 40 if quick else 200
    results = await run(base_dir, n_events=n_events)
    out: dict[str, dict[str, float]] = {}
    for result in results:
        entry: dict[str, float] = {
            "events": float(result.events),
            "total_mean_us": round(result.total_mean_us, 1),
            "total_p50_us": round(result.total_p50_us, 1),
            "stage_sum_mean_us": round(result.stage_sum_mean_us, 1),
            "coverage_mean": round(result.coverage_mean, 3),
        }
        for stage in ALL_STAGES:
            entry[f"{stage}_mean_us"] = round(
                result.stages[stage]["mean_us"], 1
            )
            entry[f"{stage}_p95_us"] = round(
                result.stages[stage]["p95_us"], 1
            )
        out[f"pipeline_subs_{result.subscribers}"] = entry
    return out


def main(base_dir: str) -> None:
    print("== pipeline: fan-out delivery decomposed into stage budgets ==")
    print("   (stage means should sum to ~the end-to-end mean)")
    results = asyncio.run(run(base_dir))
    stage_headers = " ".join(f"{s:>9}" for s in ALL_STAGES)
    print(f"{'subs':>5} {'total us':>9} {stage_headers} {'coverage':>9}")
    for result in results:
        cells = " ".join(
            f"{result.stages[s]['mean_us']:>9.1f}" for s in ALL_STAGES
        )
        print(
            f"{result.subscribers:>5} {result.total_mean_us:>9.1f} "
            f"{cells} {result.coverage_mean:>8.0%}"
        )
