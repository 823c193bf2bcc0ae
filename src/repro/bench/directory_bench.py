"""Directory benchmark: resolve latency and failover recovery.

Three real :class:`~repro.cluster.ReplicatedDirectoryServer` replicas
over the in-process transport, one :class:`~repro.cluster.LeaderClient`
writer, and two :class:`~repro.cluster.ClusterClient` readers — one on
plain TTL polling, one upgraded to watch upcalls.  Four numbers:

- ``resolve_cached`` — a resolution served from the pool's endpoint
  cache (the steady-state hot path; with watch upcalls this is *all*
  resolutions between directory changes).
- ``resolve_refresh`` — a forced cache miss: one round-trip through
  the leader link to the directory.
- ``watch_propagate`` — directory change to patched client cache via
  the watch stream (advertise and withdraw both sampled).  If the
  watch plane silently degrades to polling this number collapses to
  the TTL, which is what the perf guard pins.
- ``failover`` — leader killed mid-run: time until a write lands on
  the new leader (``write_recover_ms``) and until the watcher's cache
  reflects it (``watch_recover_ms``), election included.
"""

from __future__ import annotations

import asyncio
import time

from repro.bench.stats import p50, p95
from repro.cluster import ClusterClient, LeaderClient, ReplicatedDirectoryServer

SERVICE = "bench"
LEASE = 60.0


def _pctl(samples_us: list[float]) -> dict[str, float]:
    return {
        "samples": float(len(samples_us)),
        "p50_us": round(p50(samples_us), 2),
        "p95_us": round(p95(samples_us), 2),
    }


def _leader(servers):
    leaders = [s for s in servers if s.is_leader]
    return leaders[0] if len(leaders) == 1 else None


async def _wait_leader(servers, timeout: float = 10.0):
    deadline = time.perf_counter() + timeout
    while True:
        leader = _leader(servers)
        if leader is not None:
            return leader
        if time.perf_counter() > deadline:
            raise TimeoutError("no directory leader")
        await asyncio.sleep(0.01)


async def _wait_cache(pool, url: str, present: bool, timeout: float = 15.0) -> float:
    """Seconds until ``url``'s presence in the pool cache equals ``present``."""
    t0 = time.perf_counter()
    deadline = t0 + timeout
    while any(r.url == url for r in pool.replicas) != present:
        if time.perf_counter() > deadline:
            raise TimeoutError(f"cache never showed {url} present={present}")
        await asyncio.sleep(0)
    return time.perf_counter() - t0


async def record(quick: bool = False) -> dict[str, dict[str, float]]:
    """The machine-readable slice for ``BENCH_rpc.json``."""
    cached_n = 300 if quick else 3000
    refresh_n = 30 if quick else 200
    watch_n = 10 if quick else 40
    kills = 1 if quick else 3

    urls = [f"memory://bench-dir-{i}" for i in range(3)]
    servers = [
        ReplicatedDirectoryServer(
            url,
            [u for u in urls if u != url],
            default_lease=LEASE,
            election_timeout=(0.10, 0.25),
            seed=11 * i + 1,
        )
        for i, url in enumerate(urls)
    ]
    link = LeaderClient(urls)
    ttl_client = watch_client = None
    out: dict[str, dict[str, float]] = {}
    try:
        for server in servers:
            await server.start()
        await _wait_leader(servers)
        await link.advertise(SERVICE, "memory://bench-a", 0.0, LEASE)
        await link.advertise(SERVICE, "memory://bench-b", 0.0, LEASE)

        ttl_client = await ClusterClient.connect(urls, resolve_ttl=0.5)
        ttl_pool, _ = ttl_client._pool_for(SERVICE)
        watch_client = await ClusterClient.connect(urls, resolve_ttl=0.5)
        await watch_client.watch(SERVICE)
        watch_pool = watch_client.pool(SERVICE)
        await _wait_cache(watch_pool, "memory://bench-b", True)

        # -- resolution: cache hit vs forced round-trip ----------------------
        await ttl_pool.refresh(force=True)
        samples = []
        for _ in range(cached_n):
            t0 = time.perf_counter()
            await ttl_pool.refresh()
            samples.append((time.perf_counter() - t0) * 1e6)
        out["resolve_cached"] = _pctl(samples)

        samples = []
        for _ in range(refresh_n):
            t0 = time.perf_counter()
            await ttl_pool.refresh(force=True)
            samples.append((time.perf_counter() - t0) * 1e6)
        out["resolve_refresh"] = _pctl(samples)

        # -- watch: directory change -> patched cache ------------------------
        extra = "memory://bench-extra"
        samples = []
        for _ in range(watch_n):
            await link.advertise(SERVICE, extra, 0.0, LEASE)
            samples.append(await _wait_cache(watch_pool, extra, True) * 1e6)
            await link.withdraw(SERVICE, extra)
            samples.append(await _wait_cache(watch_pool, extra, False) * 1e6)
        out["watch_propagate"] = _pctl(samples)

        # -- failover: kill the leader, time the recovery --------------------
        write_ms, watch_ms = [], []
        for k in range(kills):
            victim = await _wait_leader(servers)
            index = servers.index(victim)
            probe = f"memory://bench-probe-{k}"
            t0 = time.perf_counter()
            await victim.shutdown()
            await link.reset()
            while True:
                try:
                    await link.advertise(SERVICE, probe, 0.0, LEASE)
                    break
                except Exception:
                    await link.reset()
                    await asyncio.sleep(0.01)
            write_ms.append((time.perf_counter() - t0) * 1e3)
            await _wait_cache(watch_pool, probe, True)
            watch_ms.append((time.perf_counter() - t0) * 1e3)
            await link.withdraw(SERVICE, probe)
            await _wait_cache(watch_pool, probe, False)
            # Restart the victim so the next round keeps its quorum.
            servers[index] = ReplicatedDirectoryServer(
                victim.url,
                [u for u in urls if u != victim.url],
                default_lease=LEASE,
                election_timeout=(0.10, 0.25),
                seed=11 * index + 7 + k,
            )
            await servers[index].start()
            leader = await _wait_leader(servers)
            deadline = time.perf_counter() + 10.0
            while servers[index].last_index < leader.last_index:
                if time.perf_counter() > deadline:
                    raise TimeoutError("restarted replica never caught up")
                await asyncio.sleep(0.01)
        out["failover"] = {
            "kills": float(kills),
            "write_recover_ms_p50": round(p50(write_ms), 1),
            "watch_recover_ms_p50": round(p50(watch_ms), 1),
            "watch_recover_ms_max": round(max(watch_ms), 1),
        }
        return out
    finally:
        for client in (ttl_client, watch_client):
            if client is not None:
                await client.close()
        await link.close()
        for server in servers:
            if server._running:
                await server.shutdown()


def main() -> None:
    print("== replicated directory: resolve, watch, failover ==")
    out = asyncio.run(record())
    for name in ("resolve_cached", "resolve_refresh", "watch_propagate"):
        stats = out[name]
        print(
            f"{name:>16}  p50 {stats['p50_us']:>9.1f}us  "
            f"p95 {stats['p95_us']:>9.1f}us  (n={stats['samples']:.0f})"
        )
    failover = out["failover"]
    print(
        f"{'failover':>16}  write {failover['write_recover_ms_p50']:>7.1f}ms  "
        f"watch {failover['watch_recover_ms_p50']:>7.1f}ms  "
        f"(kills={failover['kills']:.0f})"
    )


if __name__ == "__main__":
    main()
