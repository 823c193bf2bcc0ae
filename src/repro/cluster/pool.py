"""Replica pools: one service name, many servers, balanced calls.

A :class:`ClusterClient` is the client half of the directory story:
``bind("kv", KvIface)`` resolves the service through the directory,
connects to its replicas lazily, and returns a proxy-shaped object
whose every method call is routed by a pluggable
:class:`BalancingPolicy` — round-robin by default, or least-loaded on
the load each replica last advertised.

Failure handling composes with the resilience layer instead of
duplicating it:

- a call that dies with :class:`~repro.errors.TransportError` marks
  that endpoint *down* for ``down_ttl`` seconds, forces a fresh
  resolution, and fails over to another replica;
- a reply of :class:`~repro.errors.RemoteStaleError` (the replica
  restarted and re-published its object under a new tag) drops the
  cached per-replica proxy and looks the name up again, once;
- a shed (:class:`~repro.errors.ServerOverloadedError`) *soft-downs*
  the replica: out of rotation for the server's ``retry_after`` hint,
  connection kept (the server is healthy, just full), and the call
  fails over immediately — always safe, a shed happens before
  execution.  Each shed also adds a decaying penalty to the replica's
  load figure, so :class:`LeastLoaded` steers around recently
  overloaded replicas even after they rejoin the rotation;
- per-call retries of ``@idempotent`` methods and ambient deadlines
  still come from the underlying :class:`~repro.rpc.RpcConnection` —
  pass ``client_options=dict(retry=..., call_timeout=...)``.

Failover caveat: a call that fails in transport *may already have
executed* on the dying replica.  The default (``failover="transport"``)
re-routes every such call, which is at-least-once for non-idempotent
methods; set ``failover="idempotent"`` to re-route only calls the
interface declares safe.

Endpoint caches have two freshness regimes.  The default is TTL
polling: a pool re-resolves at most every ``resolve_ttl`` seconds and
serves the cache in between (``cluster.client.cache_hit`` /
``cache_miss`` / ``cache_stale`` count how that works out).  Calling
:meth:`ClusterClient.watch` upgrades a service to **watch upcalls**:
a dedicated :class:`~repro.cluster.replicate.LeaderClient` subscribes
to the directory's event stream and patches the pool *in place* on
every advertise/expire/withdraw, with ``(epoch, version)`` dedup
making delivery exactly-once across leader failovers.  While the
watch is live the TTL stretches to a safety net; if the watch dies
and cannot resubscribe, the pool falls back to TTL polling until it
recovers — degraded, never wrong.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any

from repro.errors import (
    CallTimeoutError,
    NoReplicasError,
    RemoteStaleError,
    ServerOverloadedError,
    TransportError,
)
from repro.cluster.endpoints import DirectoryEvent, Endpoint
from repro.obs.metrics import MetricsRegistry
from repro.rpc import RetryPolicy
from repro.store import ReplayCursor
from repro.stubs import interface_spec


class BalancingPolicy:
    """Chooses the replica for one call from the live candidates."""

    def choose(self, candidates: "list[Replica]") -> "Replica":
        raise NotImplementedError


class RoundRobin(BalancingPolicy):
    """Rotate through the candidates in url order."""

    def __init__(self) -> None:
        self._next = itertools.count()

    def choose(self, candidates: "list[Replica]") -> "Replica":
        return candidates[next(self._next) % len(candidates)]


class LeastLoaded(BalancingPolicy):
    """Pick the lowest *effective* load; break ties round-robin.

    The base load figure is whatever the replica's advertiser samples —
    session count by default, or any scrape of the builtin
    ``metrics()`` — refreshed every heartbeat, so it is coarse but
    honest.  On top of it sits the replica's decaying shed penalty:
    a replica that recently answered with
    :class:`~repro.errors.ServerOverloadedError` looks heavier than
    its advertisement for a few seconds, so traffic drains away from
    it *before* the next heartbeat can say so.
    """

    def __init__(self) -> None:
        self._tiebreak = itertools.count()

    def choose(self, candidates: "list[Replica]") -> "Replica":
        # time.monotonic() is the same clock asyncio's loop.time() reads,
        # and unlike the loop it is reachable from synchronous callers.
        now = time.monotonic()
        loads = [replica.effective_load(now) for replica in candidates]
        lowest = min(loads)
        tied = [
            replica
            for replica, load in zip(candidates, loads)
            if load <= lowest + 1e-9
        ]
        return tied[next(self._tiebreak) % len(tied)]


#: Named policies accepted by :meth:`ClusterClient.connect`.
POLICIES = {"round-robin": RoundRobin, "least-loaded": LeastLoaded}


#: Half-life of a replica's shed penalty, seconds.  Long enough that
#: LeastLoaded remembers a shed across a few heartbeats, short enough
#: that a recovered replica re-earns full traffic within seconds.
PENALTY_HALF_LIFE = 5.0


class Replica:
    """One endpoint as the pool sees it: connection, proxies, health."""

    # Class-level defaults so partially built replicas (tests, future
    # subclasses) still answer effective_load() honestly.
    overloads = 0
    shed_penalty = 0.0
    _penalty_at = 0.0

    def __init__(self, endpoint: Endpoint):
        self.url = endpoint.url
        self.load = endpoint.load
        self.generation = endpoint.generation
        self.client = None  # lazily connected ClamClient
        self.proxies: dict[tuple[type, str], Any] = {}
        self.down_until = 0.0
        self.calls = 0
        self.failures = 0
        self.overloads = 0
        self.shed_penalty = 0.0
        self._penalty_at = 0.0

    def is_down(self, now: float) -> bool:
        return now < self.down_until

    def _decayed_penalty(self, now: float) -> float:
        if self.shed_penalty <= 0.0:
            return 0.0
        age = max(0.0, now - self._penalty_at)
        return self.shed_penalty * 0.5 ** (age / PENALTY_HALF_LIFE)

    def note_overloaded(self, now: float) -> None:
        """Record one shed: bump the decaying penalty."""
        self.overloads += 1
        self.shed_penalty = self._decayed_penalty(now) + 1.0
        self._penalty_at = now

    def effective_load(self, now: float) -> float:
        """Advertised load plus the decaying shed penalty."""
        return self.load + self._decayed_penalty(now)

    async def retire(self) -> None:
        self.proxies.clear()
        client, self.client = self.client, None
        if client is not None:
            try:
                await client.close()
            except Exception:
                pass


class ReplicaPool:
    """The live endpoints of one service and the machinery to call them."""

    def __init__(
        self,
        service: str,
        directory,
        *,
        policy: BalancingPolicy,
        resolve_ttl: float,
        down_ttl: float,
        failover: str,
        client_options: dict | None,
        metrics: MetricsRegistry | None = None,
    ):
        self.service = service
        self._directory = directory
        self._policy = policy
        self._resolve_ttl = resolve_ttl
        self._down_ttl = down_ttl
        self._failover = failover
        self._client_options = dict(client_options or {})
        self._metrics = metrics
        self._replicas: dict[str, Replica] = {}
        self._resolved_at = -1e9
        self._resolve_lock = asyncio.Lock()
        self._closed = False
        #: True while a live directory watch patches this pool in
        #: place; the TTL stretches to a safety net (see watch_ttl).
        self.watching = False
        #: Called (synchronously, no await) when the pool declares its
        #: own snapshot stale while a watch is live — the watch owner
        #: uses it to resubscribe instead of trusting a dead stream.
        self.on_stale = None

    @property
    def _effective_ttl(self) -> float:
        if not self.watching:
            return self._resolve_ttl
        # Watch mode: events keep the cache fresh, so the TTL only
        # backstops a silently dead stream (evicted subscriber, lost
        # event) — generous, but not infinite.
        return max(self._resolve_ttl * 20.0, 5.0)

    # -- resolution ----------------------------------------------------------------

    @property
    def replicas(self) -> list[Replica]:
        return list(self._replicas.values())

    async def refresh(self, *, force: bool = False) -> None:
        """Bring the endpoint set up to date with the directory.

        Serialized so a burst of failing calls produces one resolution,
        not a stampede; within ``resolve_ttl`` the cache answers.
        """
        async with self._resolve_lock:
            now = asyncio.get_running_loop().time()
            if not force and now - self._resolved_at < self._effective_ttl:
                if self._metrics is not None:
                    self._metrics.counter(
                        "cluster.client.cache_hit", service=self.service
                    ).inc()
                return
            endpoints = await self._directory.resolve(self.service)
            self._resolved_at = asyncio.get_running_loop().time()
            if self._metrics is not None:
                self._metrics.counter(
                    "cluster.pool.resolves", service=self.service
                ).inc()
                self._metrics.counter(
                    "cluster.client.cache_miss", service=self.service
                ).inc()
            seen = set()
            for endpoint in endpoints:
                seen.add(endpoint.url)
                replica = self._replicas.get(endpoint.url)
                if replica is None:
                    self._replicas[endpoint.url] = Replica(endpoint)
                    continue
                if endpoint.generation != replica.generation:
                    # The replica re-advertised: assume it restarted and
                    # drop our connection to the old incarnation.
                    await replica.retire()
                    replica.generation = endpoint.generation
                    replica.down_until = 0.0
                replica.load = endpoint.load
            for url in [u for u in self._replicas if u not in seen]:
                await self._replicas.pop(url).retire()

    async def apply_event(self, event: DirectoryEvent) -> None:
        """Patch the endpoint cache in place from one directory event.

        The watch path's replacement for :meth:`refresh`: an advertise
        upserts (a generation bump retires the stale connection, like
        a TTL refresh would), a withdraw or expire removes.  The cache
        is considered freshly resolved afterwards, so the TTL safety
        net re-arms on every event.
        """
        if event.kind == "advertise":
            endpoint = Endpoint(
                service=event.service,
                url=event.url,
                load=event.load,
                generation=event.generation,
            )
            replica = self._replicas.get(event.url)
            if replica is None:
                self._replicas[event.url] = Replica(endpoint)
            else:
                if event.generation != replica.generation:
                    await replica.retire()
                    replica.generation = event.generation
                    replica.down_until = 0.0
                replica.load = event.load
        elif event.kind in ("withdraw", "expire"):
            replica = self._replicas.pop(event.url, None)
            if replica is not None:
                await replica.retire()
        else:
            return
        self._resolved_at = asyncio.get_running_loop().time()

    def invalidate(self) -> None:
        """Declare the cached snapshot stale; kick a live watch too.

        Beyond dropping the freshness stamp (so the next call pays for
        a real resolution), this tells the watch plane — via
        ``on_stale`` — that the event stream it trusts let every
        replica go dark without a withdraw.  The watch resubscribes
        from its cursor, so a freshly re-advertised replica is picked
        up immediately instead of waiting out the stretched watch TTL.
        """
        self._resolved_at = -1e9
        if self.watching and self.on_stale is not None:
            if self._metrics is not None:
                self._metrics.counter(
                    "cluster.pool.watch_kicked", service=self.service
                ).inc()
            self.on_stale()

    async def _candidates(self) -> list[Replica]:
        await self.refresh()
        now = asyncio.get_running_loop().time()
        live = [r for r in self._replicas.values() if not r.is_down(now)]
        if live:
            return live
        # Everything is down or unknown: the snapshot is stale whatever
        # regime produced it — invalidate (which also kicks a live
        # watch into resubscribing), then pay for a forced resolution;
        # the directory may already have expired the dead and admitted
        # fresh replicas.
        self.invalidate()
        await self.refresh(force=True)
        now = asyncio.get_running_loop().time()
        live = [r for r in self._replicas.values() if not r.is_down(now)]
        if not live:
            raise NoReplicasError(
                f"service {self.service!r} has no live replica "
                f"({len(self._replicas)} known, all down)"
            )
        return live

    # -- calling -------------------------------------------------------------------

    async def _proxy_for(self, replica: Replica, iface: type, published: str):
        if replica.client is None:
            from repro.client import ClamClient

            replica.client = await ClamClient.connect(
                replica.url, **self._client_options
            )
            if self._metrics is not None:
                self._metrics.counter(
                    "cluster.pool.connects", service=self.service
                ).inc()
        key = (iface, published)
        proxy = replica.proxies.get(key)
        if proxy is None:
            proxy = await replica.client.lookup(iface, published)
            replica.proxies[key] = proxy
        return proxy

    async def mark_down(self, replica: Replica) -> None:
        """Take an endpoint out of rotation for ``down_ttl`` seconds."""
        replica.failures += 1
        replica.down_until = asyncio.get_running_loop().time() + self._down_ttl
        if self._metrics is not None:
            self._metrics.counter(
                "cluster.pool.marked_down", service=self.service
            ).inc()
            # The cache served us an endpoint that proved dead: that is
            # a stale answer, whatever refreshes it next.
            self._metrics.counter(
                "cluster.client.cache_stale", service=self.service
            ).inc()
        await replica.retire()
        # The set has visibly changed; make the next call re-resolve.
        self._resolved_at = -1e9

    def mark_overloaded(self, replica: Replica, retry_after_ms: int) -> None:
        """Soft-down: out of rotation for the server's hint, connection kept.

        An overloaded replica is healthy — it answered, promptly, with
        a verdict — so unlike :meth:`mark_down` this neither retires
        the client nor forces a re-resolution; it just respects the
        ``retry_after`` hint and weights the balancer away.
        """
        now = asyncio.get_running_loop().time()
        hold = max(retry_after_ms / 1000.0, 0.05)
        replica.down_until = max(replica.down_until, now + hold)
        replica.note_overloaded(now)
        if self._metrics is not None:
            self._metrics.counter(
                "cluster.pool.overloaded", service=self.service
            ).inc()

    def _may_failover(self, exc: Exception, idempotent: bool) -> bool:
        if isinstance(exc, TransportError):
            return self._failover == "transport" or idempotent
        if isinstance(exc, CallTimeoutError):
            # The call may be mid-execution on a live replica; only a
            # declared-idempotent method is safe to run elsewhere too.
            return idempotent
        return False

    async def invoke(
        self, iface: type, published: str, method: str, args: tuple, kwargs: dict
    ) -> Any:
        """One balanced call with failover; the pooled proxies call this."""
        idempotent = bool(interface_spec(iface).method(method).idempotent)
        attempts = max(2, len(self._replicas) + 1)
        last_exc: Exception | None = None
        for _ in range(attempts):
            try:
                candidates = await self._candidates()
            except NoReplicasError:
                # Everything soft-downed because every replica shed:
                # surface the real verdict — an overload error carries
                # the retry_after hint the caller's RetryPolicy honors.
                if isinstance(last_exc, ServerOverloadedError):
                    raise last_exc from None
                raise
            replica = self._policy.choose(candidates)
            try:
                proxy = await self._proxy_for(replica, iface, published)
            except TransportError as exc:
                await self.mark_down(replica)
                last_exc = exc
                continue
            replica.calls += 1
            if self._metrics is not None:
                self._metrics.counter(
                    "cluster.pool.calls", service=self.service
                ).inc()
            try:
                return await getattr(proxy, method)(*args, **kwargs)
            except RemoteStaleError:
                # The name re-resolved to a fresh object on that
                # replica (restart, republish): drop the cached proxy
                # and look it up again — once per attempt.
                replica.proxies.pop((iface, published), None)
                proxy = await self._proxy_for(replica, iface, published)
                return await getattr(proxy, method)(*args, **kwargs)
            except ServerOverloadedError as exc:
                # A shed happens before execution, so rerouting is safe
                # no matter the method's idempotency.
                last_exc = exc
                self.mark_overloaded(replica, exc.retry_after_ms)
                if self._metrics is not None:
                    self._metrics.counter(
                        "cluster.pool.failovers", service=self.service
                    ).inc()
            except (TransportError, CallTimeoutError) as exc:
                last_exc = exc
                if not self._may_failover(exc, idempotent):
                    raise
                await self.mark_down(replica)
                if self._metrics is not None:
                    self._metrics.counter(
                        "cluster.pool.failovers", service=self.service
                    ).inc()
        assert last_exc is not None
        raise last_exc

    async def close(self) -> None:
        self._closed = True
        for replica in self._replicas.values():
            await replica.retire()
        self._replicas.clear()

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-endpoint health counters, for tests and consoles."""
        return {
            replica.url: {
                "calls": replica.calls,
                "failures": replica.failures,
                "overloads": replica.overloads,
                "load": replica.load,
                "generation": replica.generation,
                "connected": 1.0 if replica.client is not None else 0.0,
            }
            for replica in self._replicas.values()
        }


class ClusterProxy:
    """Proxy-shaped front of a :class:`ReplicaPool`.

    It deliberately is *not* a :class:`~repro.stubs.Proxy` — a real
    proxy carries one handle, and handles are per-server capabilities
    (§3.5.1); a pooled call resolves to a different handle on every
    replica.  Methods are validated against the interface spec, then
    routed through the pool.
    """

    def __init__(self, pool: ReplicaPool, iface: type, published: str):
        self._pool = pool
        self._iface = iface
        self._published = published
        self._spec = interface_spec(iface)

    @property
    def pool(self) -> ReplicaPool:
        return self._pool

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        self._spec.method(name)  # raises BadCallError for unknown methods

        async def pooled_method(*args: Any, **kwargs: Any) -> Any:
            return await self._pool.invoke(
                self._iface, self._published, name, args, kwargs
            )

        pooled_method.__name__ = name
        # Cache so repeated access returns the same callable.
        object.__setattr__(self, name, pooled_method)
        return pooled_method

    def __repr__(self) -> str:
        return (
            f"<ClusterProxy {self._spec.class_name} service="
            f"{self._pool.service!r} replicas={len(self._pool.replicas)}>"
        )


#: Queue sentinel: the pool invalidated itself under a live watch, so
#: the stream is suspect — resubscribe from the cursor.
_RESYNC = object()


class _ServiceWatch:
    """One service's watch subscription: link, cursor, monitor task."""

    __slots__ = (
        "service", "link", "queue", "task", "cursor", "key", "active",
        "stopped", "resync",
    )

    def __init__(self, service: str, link):
        self.service = service
        self.link = link
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task: asyncio.Task | None = None
        #: Last ``(epoch, version)`` applied — the exactly-once cursor.
        self.cursor = ReplayCursor((0, 0))
        self.key = 0
        self.active = False
        self.stopped = False
        #: True while a resync sentinel is queued but not yet consumed,
        #: so a burst of invalidations coalesces into one resubscribe.
        self.resync = False

    def sink(self, event: DirectoryEvent) -> None:
        """The RUC the directory calls back; runs on the upcall stream."""
        self.queue.put_nowait(event)

    def kick(self) -> None:
        """Ask the pump to resubscribe (the pool's ``on_stale`` hook)."""
        if not self.resync:
            self.resync = True
            self.queue.put_nowait(_RESYNC)


class ClusterClient:
    """Client-side entry to the cluster: resolve, bind, balance.

    One :class:`~repro.cluster.replicate.LeaderClient` link carries the
    directory traffic (supervised, retrying, leader-chasing —
    directory reads and writes are idempotent); each bound service
    gets a :class:`ReplicaPool` that dials replicas on demand, and
    :meth:`watch` upgrades a service from TTL polling to directory
    event upcalls.
    """

    def __init__(
        self,
        directory_client,
        directory_proxy,
        *,
        policy: str | BalancingPolicy = "round-robin",
        resolve_ttl: float = 0.5,
        down_ttl: float = 1.0,
        failover: str = "transport",
        client_options: dict | None = None,
        directory_urls: "str | list[str] | None" = None,
        connect_timeout: float | None = 5.0,
        retry: RetryPolicy | None = None,
    ):
        if failover not in ("transport", "idempotent"):
            raise ValueError(
                f"failover must be 'transport' or 'idempotent', not {failover!r}"
            )
        self._client = directory_client
        self._directory = directory_proxy
        self._policy_spec = policy
        self._resolve_ttl = resolve_ttl
        self._down_ttl = down_ttl
        self._failover = failover
        self._client_options = dict(client_options or {})
        self._directory_urls = directory_urls
        self._connect_timeout = connect_timeout
        self._retry = retry
        self.metrics = MetricsRegistry()
        self._pools: dict[str, ReplicaPool] = {}
        self._watches: dict[str, _ServiceWatch] = {}

    @classmethod
    async def connect(
        cls,
        directory_url: "str | list[str]",
        *,
        policy: str | BalancingPolicy = "round-robin",
        resolve_ttl: float = 0.5,
        down_ttl: float = 1.0,
        failover: str = "transport",
        retry: RetryPolicy | None = None,
        connect_timeout: float | None = 5.0,
        client_options: dict | None = None,
    ) -> "ClusterClient":
        """Connect to the directory at ``directory_url``.

        ``directory_url`` may be one URL or a replicated directory's
        full replica list; the link chases the leader either way.
        ``client_options`` are passed through to every per-replica
        ``ClamClient.connect`` (retry policies, timeouts, batching).
        """
        from repro.cluster.replicate import LeaderClient

        retry = retry if retry is not None else RetryPolicy(
            attempts=4, base_delay=0.05, max_delay=0.5
        )
        link = LeaderClient(
            directory_url, retry=retry, connect_timeout=connect_timeout
        )
        await link.ensure()
        return cls(
            link,
            link,
            policy=policy,
            resolve_ttl=resolve_ttl,
            down_ttl=down_ttl,
            failover=failover,
            client_options=client_options,
            directory_urls=directory_url,
            connect_timeout=connect_timeout,
            retry=retry,
        )

    def _make_policy(self) -> BalancingPolicy:
        if isinstance(self._policy_spec, BalancingPolicy):
            return self._policy_spec
        factory = POLICIES.get(self._policy_spec)
        if factory is None:
            raise ValueError(
                f"unknown balancing policy {self._policy_spec!r}; "
                f"pick one of {sorted(POLICIES)} or pass a BalancingPolicy"
            )
        return factory()

    async def resolve(self, service: str) -> list[Endpoint]:
        """Raw directory resolution (no pool, no cache)."""
        return await self._directory.resolve(service)

    async def services(self) -> list[str]:
        return await self._directory.list_services()

    async def bind(
        self, service: str, iface: type, *, published: str | None = None
    ) -> ClusterProxy:
        """Bind a service name to an interface; returns the pooled proxy.

        ``published`` is the name each replica published its object
        under (defaults to the service name — the recommended
        convention).  Binding resolves eagerly so a missing service
        fails here, not on the first call.
        """
        pool, created = self._pool_for(service)
        if created:
            await pool.refresh(force=True)
        return ClusterProxy(pool, iface, published if published is not None else service)

    def _pool_for(self, service: str) -> tuple[ReplicaPool, bool]:
        pool = self._pools.get(service)
        if pool is not None:
            return pool, False
        pool = ReplicaPool(
            service,
            self._directory,
            policy=self._make_policy(),
            resolve_ttl=self._resolve_ttl,
            down_ttl=self._down_ttl,
            failover=self._failover,
            client_options=self._client_options,
            metrics=self.metrics,
        )
        self._pools[service] = pool
        return pool, True

    def pool(self, service: str) -> ReplicaPool:
        return self._pools[service]

    # -- the watch plane -----------------------------------------------------------

    async def watch(self, service: str) -> None:
        """Upgrade ``service`` from TTL polling to watch upcalls.

        Subscribes to the directory's event stream over a dedicated
        leader link and patches the service's pool in place on every
        event.  The initial replay *is* the first resolution, so the
        pool is populated when this returns.  Idempotent; the watch
        survives leader failover (resubscribing with its cursor, so
        every event is applied exactly once) and degrades to TTL
        polling whenever the stream cannot be re-established.
        """
        if service in self._watches:
            return
        from repro.cluster.replicate import LeaderClient

        pool, _ = self._pool_for(service)
        urls = self._directory_urls if self._directory_urls is not None else [
            u for u in [getattr(self._directory, "url", "")] if u
        ]
        watch = _ServiceWatch(
            service,
            LeaderClient(
                urls, retry=self._retry, connect_timeout=self._connect_timeout
            ),
        )
        self._watches[service] = watch
        pool.on_stale = watch.kick
        subscribed = asyncio.Event()
        watch.task = asyncio.get_running_loop().create_task(
            self._watch_loop(watch, pool, subscribed),
            name=f"cluster-watch-{service}",
        )
        # Wait for the first subscribe+replay (or its failure) so
        # callers see a populated pool; later resubscribes are the
        # task's own business.
        await subscribed.wait()

    async def unwatch(self, service: str) -> None:
        """Drop a service back to TTL polling."""
        watch = self._watches.pop(service, None)
        if watch is None:
            return
        watch.stopped = True
        if watch.task is not None:
            watch.task.cancel()
            try:
                await watch.task
            except (asyncio.CancelledError, Exception):
                pass
        if watch.active and watch.key:
            try:
                await watch.link.unwatch(watch.key)
            except Exception:
                pass
        await watch.link.close()
        pool = self._pools.get(service)
        if pool is not None:
            pool.watching = False
            pool.on_stale = None
        self._note_watch_gauge()

    def _note_watch_gauge(self) -> None:
        self.metrics.gauge("cluster.client.watch_active").set(
            float(sum(1 for w in self._watches.values() if w.active))
        )

    async def _watch_loop(
        self, watch: _ServiceWatch, pool: ReplicaPool, subscribed: asyncio.Event
    ) -> None:
        """Subscribe, pump events, resubscribe across failovers forever."""
        while not watch.stopped:
            try:
                watch.key = await watch.link.invoke(
                    "watch", watch.service, *watch.cursor.last, watch.sink
                )
            except asyncio.CancelledError:
                raise
            except Exception:
                # Degraded mode: no leader reachable — the pool's TTL
                # path carries the load until the stream comes back.
                watch.active = False
                pool.watching = False
                self._note_watch_gauge()
                subscribed.set()
                await asyncio.sleep(max(self._resolve_ttl, 0.2))
                continue
            watch.active = True
            pool.watching = True
            self._note_watch_gauge()
            subscribed.set()
            resubscribe = await self._pump_watch(watch, pool)
            watch.active = False
            pool.watching = False
            self._note_watch_gauge()
            if not resubscribe:
                return

    async def _pump_watch(self, watch: _ServiceWatch, pool: ReplicaPool) -> bool:
        """Apply events until the stream dies; True to resubscribe."""
        health_interval = max(self._resolve_ttl, 0.2)
        while not watch.stopped:
            try:
                event = await asyncio.wait_for(watch.queue.get(), health_interval)
            except (asyncio.TimeoutError, TimeoutError):
                if not watch.link.healthy:
                    # The connection carrying our RUC died (leader
                    # crash, eviction): resubscribe from the cursor.
                    await watch.link.reset()
                    return True
                continue
            if event is _RESYNC:
                # The pool found every replica dark and invalidated
                # itself: the stream we trust evidently missed the
                # story.  Resubscribe from the cursor — replay brings
                # any re-advertised replica in immediately.
                watch.resync = False
                await watch.link.reset()
                return True
            if not watch.cursor.admit((event.epoch, event.version)):
                # Replay overlap (at-least-once below, exactly-once
                # here): already applied, drop it.
                self.metrics.counter(
                    "cluster.client.watch_duplicates", service=watch.service
                ).inc()
                continue
            if event.kind == "leader-change":
                leader = event.url
                if leader != watch.link.url:
                    # The stream we are on is no longer authoritative
                    # (an empty url means an election is in flight):
                    # chase the new leader with the cursor we have.
                    await watch.link.reset(prefer=leader)
                    return True
                continue
            await pool.apply_event(event)
            self.metrics.counter(
                "cluster.client.watch_events", service=watch.service
            ).inc()
        return False

    async def close(self) -> None:
        for service in list(self._watches):
            await self.unwatch(service)
        for pool in self._pools.values():
            await pool.close()
        self._pools.clear()
        await self._client.close()

    async def __aenter__(self) -> "ClusterClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()
