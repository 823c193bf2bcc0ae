"""Cluster-wide metric push over distributed upcalls.

Scraping inverts the paper's layering: a monitoring system that polls
``metrics()`` is a *client* of every server, and under overload — the
moment metrics matter most — its polls queue behind the very traffic
it is trying to observe.  This module turns the flow around with the
paper's own mechanism: a server publishes a :data:`TELEMETRY_SERVICE`
object, collectors register a *procedure pointer* (§3.5.2), and the
server pushes its metric snapshots to them as distributed upcalls —
asynchronous, credit-windowed, and coalescing when a collector falls
behind.

Pushes carry the **full cumulative snapshot**, not deltas.  The hub's
fan-out group runs ``slow_policy="coalesce"``: a slow collector's
backlog collapses to the newest snapshot, which is only safe because
every snapshot is self-contained — a dropped intermediate delta would
lose counts forever.  The :class:`Collector` differences successive
snapshots itself when it wants rates.

Wire shape of one push::

    sink(node: str, seq: int, snapshot: dict[str, float])

``seq`` increases per hub; a collector ignores stale or duplicate
sequence numbers (reconnects and coalescing can reorder arrivals).
The snapshot is the registry's flattened form plus ``telemetry.*``
meta keys (seq, ts, interval, session count) that describe the push
itself.
"""

from __future__ import annotations

import math
import os
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.directory import DIRECTORY_SERVICE, DirectoryInterface
from repro.cluster.group import UpcallGroup
from repro.store import ReplayCursor
from repro.stubs import RemoteInterface, idempotent

if TYPE_CHECKING:
    from repro.server.clam import ClamServer

#: The well-known directory name a server's telemetry hub is published
#: under (by :meth:`repro.server.ClamServer.enable_telemetry`).
TELEMETRY_SERVICE = "clam.telemetry"


class TelemetryInterface(RemoteInterface):
    """Declaration of the telemetry protocol (collectors build proxies)."""

    __clam_class__ = "clam.telemetry"

    def subscribe(
        self, sink: Callable[[str, int, dict[str, float]], None]
    ) -> int: ...
    def unsubscribe(self, key: int) -> bool: ...
    @idempotent
    def node(self) -> str: ...
    @idempotent
    def pull(self) -> dict[str, float]: ...


class TelemetryHub(TelemetryInterface):
    """Server-side pusher: one fan-out group over subscribed sinks."""

    __clam_local__ = ("start", "close", "push_now")

    def __init__(
        self,
        server: "ClamServer",
        *,
        node: str = "",
        interval: float = 1.0,
        queue_limit: int = 8,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._server = server
        self.node_name = node or f"pid-{os.getpid()}"
        self.interval = interval
        self.seq = 0
        self._task = None
        # Coalesce, never drop-oldest or evict: snapshots are
        # self-contained, so the newest one subsumes any backlog, and
        # a briefly-stalled collector should not lose its membership.
        self._group = UpcallGroup(
            "telemetry",
            queue_limit=queue_limit,
            slow_policy="coalesce",
            metrics=server.metrics,
            tracer=server.tracer,
        )

    # -- the remote protocol ------------------------------------------------------

    def subscribe(
        self, sink: Callable[[str, int, dict[str, float]], None]
    ) -> int:
        """Register a collector's sink procedure; returns its key.

        The first snapshot is pushed immediately, so a collector knows
        it is live without waiting out an interval.
        """
        key = self._group.subscribe(sink)
        self.push_now()
        return key

    def unsubscribe(self, key: int) -> bool:
        return self._group.unsubscribe(key)

    def node(self) -> str:
        return self.node_name

    def pull(self) -> dict[str, float]:
        """Synchronous fallback for pollers (and ``top --once``)."""
        return self._payload()

    # -- host-side control (not part of the wire interface) -----------------------

    def start(self) -> None:
        """Start the periodic pusher on the server's task system."""
        if self._task is None:
            self._task = self._server.tasks.spawn(
                self._run(), name="telemetry-push"
            )

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None
        await self._group.close()

    def push_now(self) -> int:
        """Push one snapshot to every subscriber; returns how many."""
        self.seq += 1
        return self._group.post(self.node_name, self.seq, self._payload())

    async def _run(self) -> None:
        import asyncio

        while True:
            await asyncio.sleep(self.interval)
            if len(self._group):
                self.push_now()

    def _payload(self) -> dict[str, float]:
        snapshot = self._server.metrics.snapshot()
        snapshot["telemetry.seq"] = float(self.seq)
        snapshot["telemetry.ts"] = time.time()
        snapshot["telemetry.interval_s"] = self.interval
        snapshot["telemetry.sessions"] = float(self._server.session_count)
        return snapshot

    @property
    def subscriber_count(self) -> int:
        return len(self._group)


class _NodeState:
    """What the collector knows about one pushing node."""

    __slots__ = ("cursor", "snapshot", "ts", "prev_snapshot", "prev_ts", "received")

    def __init__(self) -> None:
        self.cursor = ReplayCursor()
        self.snapshot: dict[str, float] = {}
        self.ts = 0.0
        self.prev_snapshot: dict[str, float] = {}
        self.prev_ts = 0.0
        self.received = 0


class Collector:
    """Aggregates pushed snapshots from many nodes.

    The ingestion path (:meth:`ingest`) is transport-agnostic — it is
    exactly the sink signature the hub pushes to, so it can be
    subscribed over a session (:meth:`attach`), across a whole
    directory of replicas (:meth:`attach_directory`), or fed directly
    in tests.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, _NodeState] = {}
        self.stale_pushes = 0
        self._attached: list[tuple[Any, Any, int]] = []  # (client, proxy, key)

    # -- ingestion (the pushed-to sink) --------------------------------------------

    def ingest(self, node: str, seq: int, snapshot: dict[str, float]) -> None:
        """One pushed snapshot.  Stale/duplicate sequence numbers are
        dropped — coalescing and reconnects can reorder arrivals, and
        cumulative snapshots make skipping safe."""
        state = self.nodes.get(node)
        if state is None:
            state = self.nodes[node] = _NodeState()
        if not state.cursor.admit(seq):
            self.stale_pushes += 1
            return
        state.prev_snapshot = state.snapshot
        state.prev_ts = state.ts
        state.snapshot = snapshot
        state.ts = snapshot.get("telemetry.ts", time.time())
        state.received += 1

    # -- reading ------------------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Sum of every node's latest snapshot, key by key.

        ``telemetry.*`` meta keys describe individual pushes and are
        skipped, as are non-finite values (a histogram with no samples
        reports its quantiles as NaN).
        """
        out: dict[str, float] = {}
        for state in self.nodes.values():
            for key, value in state.snapshot.items():
                if key.startswith("telemetry."):
                    continue
                if not math.isfinite(value):
                    continue
                out[key] = out.get(key, 0.0) + value
        return out

    def rate(self, node: str, key: str) -> float:
        """Per-second delta of one key between the node's last two
        snapshots; 0.0 until two have arrived."""
        state = self.nodes.get(node)
        if state is None or not state.prev_snapshot:
            return 0.0
        dt = state.ts - state.prev_ts
        if dt <= 0:
            return 0.0
        now = state.snapshot.get(key)
        then = state.prev_snapshot.get(key, 0.0)
        if now is None or not math.isfinite(now) or not math.isfinite(then):
            return 0.0
        return (now - then) / dt

    def value(self, node: str, key: str, default: float = 0.0) -> float:
        state = self.nodes.get(node)
        if state is None:
            return default
        return state.snapshot.get(key, default)

    @property
    def pushes_received(self) -> int:
        return sum(state.received for state in self.nodes.values())

    # -- attachment over sessions ---------------------------------------------------

    async def attach(self, url: str) -> str:
        """Connect to one server and subscribe; returns its node name.

        The connection is owned by the collector until :meth:`close`.
        """
        from repro.client import ClamClient

        client = await ClamClient.connect(url)
        try:
            hub = await client.lookup(TelemetryInterface, TELEMETRY_SERVICE)
            key = await hub.subscribe(self.ingest)
            name = await hub.node()
        except BaseException:
            await client.close()
            raise
        self._attached.append((client, hub, key))
        return name

    async def attach_directory(self, directory_url: str, service: str) -> list[str]:
        """Subscribe to every replica of ``service`` in a directory.

        Resolves the service's endpoints, then attaches to each
        replica's telemetry hub; returns the node names in endpoint
        order.  Replicas must have telemetry enabled
        (:meth:`repro.server.ClamServer.enable_telemetry`).
        """
        from repro.client import ClamClient

        names: list[str] = []
        dir_client = await ClamClient.connect(directory_url)
        try:
            directory = await dir_client.lookup(
                DirectoryInterface, DIRECTORY_SERVICE
            )
            endpoints = await directory.resolve(service)
        finally:
            await dir_client.close()
        for endpoint in endpoints:
            names.append(await self.attach(endpoint.url))
        return names

    async def close(self) -> None:
        """Unsubscribe and drop every attached session."""
        attached, self._attached = self._attached, []
        for client, hub, key in attached:
            try:
                await hub.unsubscribe(key)
            except Exception:
                pass
            await client.close()
