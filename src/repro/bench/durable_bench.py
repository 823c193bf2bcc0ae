"""Durable fan-out benchmark: the price of the store-and-forward path.

Three questions, each a scenario:

- **steady state** — with a spool attached and a durable subscriber
  live, what does an end-to-end delivery cost versus the plain
  (non-durable) hub?  The live path never touches the log — durability
  is paid only on failure — so the steady-state overhead is the seq
  stamp, the identity bookkeeping, and the periodic seq-lease write.
  The acceptance bar is ``overhead_vs_plain_p50 < 2.0``.
- **spill** — with the subscriber parked, how fast do posts drain to
  the crash-safe log (events/second at the configured fsync policy)?
- **replay** — once the subscriber returns, how fast does the backlog
  replay out of the log back into handlers?

Steady state runs over a real wire (one ClamClient per hub, same
payload shape on both hubs so the comparison is honest); spill and
replay are host-local by design — that is where those paths run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable

from repro.bench.stats import Latencies
from repro.bundlers import default_registry
from repro.client import ClamClient
from repro.cluster import UpcallGroup
from repro.core import UpcallSignature
from repro.errors import UpcallError
from repro.server import ClamServer
from repro.store import Spool
from repro.stubs import RemoteInterface

#: Signature for host-local durable handlers: (seq, publisher stamp).
_SIG = UpcallSignature((int, float), type(None), default_registry())


class DurableHub(RemoteInterface):
    def __init__(self, spool: Spool):
        self.group = UpcallGroup("bench-durable", store=spool, queue_limit=4096)

    def join(self, proc: Callable[[int, float], None], durable: str) -> int:
        return self.group.subscribe(proc, durable=durable)


class PlainHub(RemoteInterface):
    def __init__(self):
        self.group = UpcallGroup("bench-plain", queue_limit=4096)

    def join(self, proc: Callable[[int, float], None]) -> int:
        return self.group.subscribe(proc)


@dataclass
class SteadyResult(Latencies):
    events: int
    latencies_us: list[float]


@dataclass
class RateResult:
    events: int
    elapsed_s: float

    @property
    def events_per_sec(self) -> float:
        return self.events / self.elapsed_s if self.elapsed_s else 0.0


async def _measure_steady(
    n_events: int, base_dir: str, spool_dir: str | None
) -> SteadyResult:
    """One wire subscriber, durable when ``spool_dir`` is given.

    The plain hub posts an explicit counter so both hubs ship the same
    ``(int, float)`` payload — the delta is the durable machinery, not
    the marshalling.
    """
    durable = spool_dir is not None
    spool = Spool(spool_dir, fsync="batch") if durable else None
    server = ClamServer(degrade_upcalls=True)
    hub = DurableHub(spool) if durable else PlainHub()
    server.publish("bench.hub", hub)
    kind = "durable" if durable else "plain"
    address = await server.start(f"unix://{base_dir}/{kind}.sock")

    latencies_us: list[float] = []
    client = await ClamClient.connect(address)
    try:
        proxy = await client.lookup(type(hub), "bench.hub")

        def handler(seq: int, stamp: float) -> None:
            latencies_us.append((time.perf_counter() - stamp) * 1e6)

        if durable:
            await proxy.join(handler, "bench")
        else:
            await proxy.join(handler)

        # Warm the path off-clock (connect, bundler plan, task pool,
        # and for the durable hub the first seq-lease write).
        if durable:
            hub.group.post(time.perf_counter())
        else:
            hub.group.post(0, time.perf_counter())
        await hub.group.flush()
        latencies_us.clear()

        for seq in range(n_events):
            if durable:
                hub.group.post(time.perf_counter())
            else:
                hub.group.post(seq, time.perf_counter())
            await asyncio.sleep(0)
        await hub.group.flush(timeout=60.0)
        return SteadyResult(events=n_events, latencies_us=latencies_us)
    finally:
        await client.close()
        await hub.group.close()
        if spool is not None:
            spool.close()
        await server.shutdown()


async def _measure_spill_and_replay(
    n_events: int, spool_dir: str
) -> tuple[RateResult, RateResult]:
    """Park a durable subscriber, time the spill, then the replay."""
    spool = Spool(spool_dir, fsync="batch")
    group = UpcallGroup("bench-durable", store=spool, queue_limit=4096,
                        resume_poll=0.01)

    def dying(seq: int, stamp: float) -> None:
        raise UpcallError("benchmark park")

    group.subscribe(dying, durable="bench", signature=_SIG)
    group.post(time.perf_counter())
    while group.parked_subscribers != 1:
        await asyncio.sleep(0.001)

    sub = spool.topic("bench-durable").subscription("bench")
    start = time.perf_counter()
    for _ in range(n_events):
        group.post(time.perf_counter())
    while sub.backlog_events < n_events + 1:
        await asyncio.sleep(0.001)
    spill = RateResult(events=n_events, elapsed_s=time.perf_counter() - start)

    replayed: list[int] = []
    start = time.perf_counter()
    group.subscribe(
        lambda seq, stamp: replayed.append(seq), durable="bench",
        signature=_SIG,
    )
    await group.flush(timeout=60.0)
    replay = RateResult(
        events=len(replayed), elapsed_s=time.perf_counter() - start
    )
    await group.close()
    spool.close()
    return spill, replay


async def run(
    base_dir: str, *, n_events: int = 200, n_spill: int = 2000
) -> dict[str, object]:
    plain = await _measure_steady(n_events, base_dir, None)
    steady = await _measure_steady(
        n_events, base_dir, f"{base_dir}/spool-steady"
    )
    spill, replay = await _measure_spill_and_replay(
        n_spill, f"{base_dir}/spool-offline"
    )
    return {
        "plain": plain, "steady": steady, "spill": spill, "replay": replay
    }


async def record(base_dir: str, quick: bool = False) -> dict[str, dict[str, float]]:
    """The machine-readable slice for ``BENCH_rpc.json``."""
    n_events = 40 if quick else 200
    n_spill = 400 if quick else 2000
    results = await run(base_dir, n_events=n_events, n_spill=n_spill)
    plain, steady = results["plain"], results["steady"]
    spill, replay = results["spill"], results["replay"]
    overhead = (
        round(steady.p50_us / plain.p50_us, 2) if plain.p50_us else 0.0
    )
    return {
        "durable_steady_subs_1": {
            "events": steady.events,
            "p50_delivery_us": round(steady.p50_us, 1),
            "p95_delivery_us": round(steady.p95_us, 1),
            "plain_p50_delivery_us": round(plain.p50_us, 1),
            "overhead_vs_plain_p50": overhead,
        },
        "durable_spill": {
            "events": spill.events,
            "events_per_sec": round(spill.events_per_sec, 1),
        },
        "durable_replay": {
            "events": replay.events,
            "events_per_sec": round(replay.events_per_sec, 1),
        },
    }


def main(base_dir: str) -> None:
    print("== durable store-and-forward: steady state, spill, replay ==")
    print("   (steady overhead = durable p50 / plain p50, live path)")
    results = asyncio.run(run(base_dir))
    plain, steady = results["plain"], results["steady"]
    spill, replay = results["spill"], results["replay"]
    print(f"{'scenario':<22} {'events':>7} {'p50 us':>9} {'p95 us':>9}")
    print(f"{'plain steady':<22} {plain.events:>7} "
          f"{plain.p50_us:>9.0f} {plain.p95_us:>9.0f}")
    print(f"{'durable steady':<22} {steady.events:>7} "
          f"{steady.p50_us:>9.0f} {steady.p95_us:>9.0f}")
    if plain.p50_us:
        print(f"{'overhead vs plain':<22} {steady.p50_us / plain.p50_us:>7.2f}x")
    print(f"{'spill (parked)':<22} {spill.events:>7} "
          f"{spill.events_per_sec:>9.0f}/s")
    print(f"{'replay (catch-up)':<22} {replay.events:>7} "
          f"{replay.events_per_sec:>9.0f}/s")
