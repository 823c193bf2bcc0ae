"""Fan-out upcall groups: one event source, many subscribers.

The paper's RUC is strictly one procedure pointer per registration
(§3.5.2, §4) — one event, one client.  An :class:`UpcallGroup` holds
*many* RUCs registered under one topic and turns one :meth:`post` into
one delivery per subscriber, each over that subscriber's own upcall
stream, without ever blocking the publisher on the slowest client:

- ``post()`` only *enqueues* — per-subscriber bounded queues decouple
  the publisher from delivery;
- one pump task per subscriber drains its queue in order, preserving
  the per-connection ordering guarantee subscribers already get from
  single RUCs.  The pump is *batched*: each wakeup drains the whole
  backlog (:meth:`~repro.flow.BoundedQueue.pop_all`) and, when the
  subscriber is a :class:`~repro.core.RemoteUpcall` whose session
  supports it, delivers the batch as one coalesced flush — one §4.4
  slot, one credit-window pass, one write+drain — so per-event
  latency tracks the wire cost instead of one scheduler round trip
  per event;
- events are marshalled **once** per post: each queued event carries a
  shared cache mapping upcall signatures to bundled payload bytes and
  frame templates, so an N-subscriber fan-out encodes the frame one
  time and each subscriber send patches only the serial/ruc_id header
  fields (see :func:`repro.wire.patch_upcall_frame`);
- a subscriber whose queue overflows is handled by the group's
  ``slow_policy``: ``"drop"`` the new event for it, ``"coalesce"`` the
  backlog down to the newest event, or ``"evict"`` the subscriber
  entirely;
- a subscriber whose *delivery* dies (client gone, channel dead) is
  always evicted — a queue aimed at nobody only grows;
- unless it registered as **durable** (``subscribe(proc, durable=id)``
  on a group built with ``store=``, see :mod:`repro.store`): then a
  dead delivery path *parks* the subscription instead — the backlog
  spills to a crash-safe per-subscriber log, later posts append to it,
  and when the subscriber returns (an explicit re-subscribe under the
  same durable id, or its session resuming within the linger window)
  the pump **replays** the log in seq order before going live again.
  Durable topics stamp every event with a topic sequence number,
  prepended as the first handler argument, so clients can carry an
  exactly-once cursor across the outage
  (:class:`repro.store.ReplayCursor`).  Replayed records take the
  same send and the same outcome rule as live events, so replay is
  paced by the subscriber's CREDIT grants — a returning slow consumer
  drains its backlog at its own window, never as a firehose.

Evictions are surfaced the way failed void upcalls already are: the
RUC's sender exposes ``report_upcall_failure`` (the §4.3 error-port
degradation path, ``ClamServer(degrade_upcalls=True)``), and the
group offers every eviction to it.

The per-subscriber queue is a :class:`repro.flow.BoundedQueue` — the
shared overflow primitive — so the policies here are exactly the ones
tested there.  Counters are consistently in *event* units:
``cluster.fanout.delivered`` / ``dropped`` / ``coalesced`` /
``evicted_events`` (backlog discarded when a subscriber is evicted),
plus ``cluster.fanout.evicted_subscribers`` for the eviction count
itself.

The group is transport-agnostic: anything awaitable can subscribe —
a :class:`~repro.core.RemoteUpcall`, a local coroutine function, or a
plain callable — so a layer can be tested locally and deployed
distributed, the paper's layering promise.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import time
from typing import Any, Callable

from repro.errors import (
    FlushTimeoutError,
    SlowSubscriberError,
    StoreError,
    TransportError,
    UpcallError,
)
from repro.flow import BoundedQueue, Outcome
from repro.obs.profile import set_layer
from repro.obs.stages import STAGE_ENQUEUE, STAGE_QUEUE, StageTimer

#: Accepted slow-subscriber policies (the :mod:`repro.flow.bounded` set).
SLOW_POLICIES = ("drop", "coalesce", "evict")

#: Most spill-log records one replay step sends; the subscriber's
#: credit headroom narrows it further.
REPLAY_CHUNK = 64

#: Failures that mean the delivery path itself is dead (client gone,
#: no channel), not that one handler raised.
_DEAD_PATH = (UpcallError, TransportError)


class _Event:
    """One posted event plus its shared encode-once caches.

    A single ``_Event`` instance is offered to every subscriber queue,
    so the caches are cross-subscriber: ``payloads`` maps an upcall
    signature's :attr:`~repro.core.UpcallSignature.payload_key` to the
    bundled argument bytes, and ``frames`` is handed to the session's
    batch sender to cache encoded frame templates (keyed by version and
    trace context there).  First subscriber pays the marshalling, the
    other N-1 reuse the bytes.
    """

    __slots__ = ("args", "t_post", "payloads", "frames")

    def __init__(self, args: tuple, t_post: float):
        self.args = args
        self.t_post = t_post
        self.payloads: dict = {}
        self.frames: dict = {}

    def payload_for(self, signature) -> bytes:
        key = signature.payload_key
        payload = self.payloads.get(key)
        if payload is None:
            payload = self.payloads[key] = signature.bundle_args(self.args)
        return payload


class _Replayed(_Event):
    """A spill-log record back on the delivery path.

    The payload cache starts out holding the stored bytes, so a RUC
    subscriber sends them as they are; ``args`` are unbundled only if
    a local subscriber calls for them.
    """

    __slots__ = ("seq", "signature")

    def __init__(self, seq: int, payload: bytes, signature):
        self.seq = seq
        self.signature = signature
        self.t_post = 0.0
        self.payloads = {signature.payload_key: payload}
        self.frames = None

    @property
    def args(self) -> tuple:
        return self.signature.unbundle_args(self.payloads[self.signature.payload_key])


class _Subscriber:
    """One registered procedure: queue, pump task, counters."""

    __slots__ = (
        "key", "proc", "queue", "wakeup", "idle", "parked", "task",
        "delivered", "alive", "durable", "signature", "replaying",
        "pending", "pending_from",
    )

    def __init__(
        self, key: int, proc: Callable[..., Any], limit: int, policy: str
    ):
        self.key = key
        self.proc = proc
        self.queue: BoundedQueue[_Event] = BoundedQueue(limit, policy=policy)
        self.wakeup = asyncio.Event()
        self.idle = asyncio.Event()
        self.idle.set()
        #: True only while the pump is blocked on ``wakeup`` — posts
        #: skip the Event.set() dance entirely while the pump is awake.
        self.parked = False
        self.task: asyncio.Task | None = None
        self.delivered = 0
        self.alive = True
        #: :class:`repro.store.DurableSubscription` for durable
        #: registrations, else None (and the next two stay unset).
        self.durable = None
        self.signature = None
        #: True while the pump is draining the spill log; offers spill
        #: instead of queueing so replay order is preserved.
        self.replaying = False
        #: The batch the pump popped but has not finished delivering,
        #: maintained for durable subscribers only: a detach that
        #: arrives mid-delivery (unsubscribe, close) spills
        #: ``pending[pending_from:]`` — popped events are in neither
        #: the queue nor the log, so without this they would be lost.
        self.pending: list | None = None
        self.pending_from = 0

    @property
    def dropped(self) -> int:
        return self.queue.dropped

    @property
    def coalesced(self) -> int:
        return self.queue.coalesced


class UpcallGroup:
    """Server-side fan-out over many registered upcall procedures."""

    def __init__(
        self,
        topic: str = "fanout",
        *,
        queue_limit: int = 32,
        slow_policy: str = "drop",
        metrics=None,
        tracer=None,
        on_evict: Callable[[int, Exception], Any] | None = None,
        fence=None,
        store=None,
        resume_poll: float = 0.25,
    ):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if slow_policy not in SLOW_POLICIES:
            raise ValueError(
                f"slow_policy must be one of {SLOW_POLICIES}, not {slow_policy!r}"
            )
        self.topic = topic
        self.queue_limit = queue_limit
        self.slow_policy = slow_policy
        self._metrics = metrics
        self._tracer = tracer
        self._on_evict = on_evict
        #: Optional :class:`repro.rpc.FenceGuard`.  When set, every
        #: post() admits the caller's ambient fencing token against the
        #: topic before enqueueing — a publisher whose lease lapsed
        #: (and was re-granted to someone else) gets FencedWriteError
        #: instead of fanning out stale events.
        self._fence = fence
        # Stage clocks (see repro.obs.stages): post() stamps each event
        # so the pump can report queue wait per delivery.  The timer
        # shares the registry's interned histograms, so many groups on
        # one server feed the same upcall.stage.* series.
        self._stages = StageTimer(metrics) if metrics is not None else None
        self._keys = itertools.count(1)
        self._subscribers: dict[int, _Subscriber] = {}
        self._closed = False
        #: Durable plane (see :mod:`repro.store`).  ``store`` is the
        #: server's :class:`~repro.store.Spool`; a group built with one
        #: becomes a *durable topic*: every post is stamped with a
        #: topic seq (prepended to the handler args) and subscribers
        #: may register with ``durable=<stable id>``.
        self._spool = store
        self._store = None
        if store is not None:
            self._store = store.topic(topic)
            store.register_group(topic, self)
        self._parked: dict = {}  # durable_id -> DurableSubscription
        self._resume_poll = resume_poll
        self._resume_task: asyncio.Task | None = None
        #: Aggregate counters (per-subscriber ones live on the entries).
        self.posts = 0
        self.delivered = 0
        self.dropped = 0
        self.coalesced = 0
        self.evicted_subscribers = 0
        self.evicted_events = 0
        self.errors = 0
        self.parks = 0
        self.resumes = 0
        self.spilled = 0
        self.replayed = 0

    # -- membership ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._subscribers)

    @property
    def subscriber_keys(self) -> list[int]:
        return list(self._subscribers)

    def subscribe(
        self,
        proc: Callable[..., Any],
        *,
        durable: str | None = None,
        resume_from: int = 0,
        signature=None,
    ) -> int:
        """Add a procedure to the topic; returns its subscription key.

        ``proc`` is awaited per event if it returns an awaitable (a
        RemoteUpcall or coroutine function) and called plainly
        otherwise.  The pump task starts immediately.

        ``durable`` registers under a stable identity on a group built
        with ``store=``: if that identity has spilled backlog (it was
        parked, or the server restarted with its log on disk) the pump
        first **replays** the log in seq order, paced by the client's
        CREDIT grants, before going live.  Handlers on a durable topic
        receive ``(seq, *args)`` — declare the leading ``int``.

        ``resume_from`` is the subscriber's own cursor (the highest seq
        it knows it fully processed): everything at or below it is
        acknowledged before replay starts, closing the in-doubt window
        of deliveries whose acks were lost in the crash.  ``signature``
        overrides the upcall signature used to bundle spilled events —
        required for *local* durable subscribers, inferred from the
        RUC otherwise.

        A durable id may have one live registration: re-subscribing an
        id that is already live detaches the older one (latest wins —
        the reconnect case).
        """
        if self._closed:
            raise UpcallError(f"upcall group {self.topic!r} is closed")
        if not callable(proc):
            raise UpcallError(f"subscriber must be callable, got {proc!r}")
        durable_sub = None
        if durable is not None:
            if self._store is None:
                raise StoreError(
                    f"topic {self.topic!r} has no store; build the group "
                    f"with store=Spool(...) for durable subscriptions"
                )
            signature = signature or getattr(proc, "signature", None)
            if signature is None:
                raise StoreError(
                    f"durable subscriber {durable!r} needs an upcall "
                    f"signature to bundle spilled events; pass signature= "
                    f"for local procedures"
                )
            old_key = self._durable_key(durable)
            if old_key is not None:
                self.unsubscribe(old_key)
            durable_sub = self._store.subscription(durable)
            durable_sub.signature = signature
            durable_sub.proc = proc
            self._parked.pop(durable, None)
            if resume_from:
                durable_sub.ack(resume_from)
        key = next(self._keys)
        subscriber = _Subscriber(key, proc, self.queue_limit, self.slow_policy)
        if durable_sub is not None:
            subscriber.durable = durable_sub
            subscriber.signature = signature
            if durable_sub.backlog_events:
                subscriber.replaying = True
                subscriber.idle.clear()
                self.resumes += 1
                if self._metrics is not None:
                    self._metrics.counter("store.resumes").inc()
        self._subscribers[key] = subscriber
        subscriber.task = asyncio.get_running_loop().create_task(
            self._pump(subscriber), name=f"fanout-{self.topic}-{key}"
        )
        self._update_store_gauges()
        return key

    def _durable_key(self, durable_id: str) -> int | None:
        """The live subscription key registered under a durable id."""
        for key, subscriber in self._subscribers.items():
            if (
                subscriber.durable is not None
                and subscriber.durable.durable_id == durable_id
            ):
                return key
        return None

    def unsubscribe(self, key: int) -> bool:
        """Remove a subscriber; pending events for it are discarded.

        A *durable* subscriber's pending events are spilled to its log
        instead (the identity outlives the registration), but the
        subscription is not parked for auto-resume — unsubscribing is
        deliberate.  Re-subscribing the id later replays the spill.
        """
        subscriber = self._subscribers.pop(key, None)
        if subscriber is None:
            return False
        if subscriber.durable is not None:
            try:
                self._spill_events(subscriber.durable, self._undelivered(subscriber))
            except Exception:
                pass
        self._detach(subscriber)
        return True

    def _undelivered(self, subscriber: _Subscriber) -> list:
        """Everything a detaching durable subscriber has not absorbed:
        the tail of the batch its pump popped mid-delivery (the event
        in flight counts — it may not have landed, and seq-cursor
        dedup makes respilling it harmless) plus the queue."""
        events = (
            list(subscriber.pending[subscriber.pending_from:])
            if subscriber.pending
            else []
        )
        subscriber.pending = None
        events.extend(subscriber.queue.pop_all())
        return events

    def _detach(self, subscriber: _Subscriber) -> None:
        subscriber.alive = False
        subscriber.queue.clear()
        subscriber.idle.set()
        subscriber.parked = False
        subscriber.wakeup.set()  # let the pump observe alive=False and exit
        if subscriber.task is not None and not subscriber.task.done():
            subscriber.task.cancel()

    # -- publishing ---------------------------------------------------------------

    def post(self, *args: Any) -> int:
        """Enqueue one event to every subscriber; returns how many got it.

        Never blocks and never raises for subscriber trouble — slow
        queues hit the ``slow_policy``, dead deliveries evict from the
        pump.  Synchronous on purpose: any server layer (an RPC
        handler, a timer task) can post without being coupled to the
        slowest client.
        """
        if self._closed:
            raise UpcallError(f"upcall group {self.topic!r} is closed")
        if self._fence is not None:
            self._fence.admit(self.topic)
        self.posts += 1
        enqueued = 0
        # Events carry their enqueue stamp so the pump can attribute
        # queue wait per delivery, plus the shared encode-once caches
        # (see :class:`_Event`) — one object offered to every queue, so
        # the first delivering subscriber marshals for all of them.
        # Opaque to the overflow policies, which treat entries whole.
        t_post = time.perf_counter() if self._stages is not None else 0.0
        if self._store is not None:
            # Durable topic: stamp the topic seq as the first handler
            # argument.  Stamped for every subscriber (not just durable
            # ones) so the encode-once payload caches stay shared.
            args = (self._store.assign_seq(),) + args
        event = _Event(args, t_post)
        for subscriber in list(self._subscribers.values()):
            if self._offer(subscriber, event):
                enqueued += 1
        if self._parked:
            enqueued += self._spill_parked(event)
        if self._metrics is not None:
            self._metrics.counter("cluster.fanout.posts").inc()
        if self._stages is not None:
            self._stages.observe(
                STAGE_ENQUEUE, (time.perf_counter() - t_post) * 1e6
            )
        return enqueued

    def offer_to(self, key: int, *args: Any) -> bool:
        """Enqueue one event to a *single* subscriber; True if it queued.

        The replay half of the watch protocol: a synchronous handler can
        subscribe and then offer the missed history to just the new
        subscriber, with no other subscriber seeing the replay and no
        live post able to interleave (the handler never awaits between
        subscribe and offers).  Not fenced — replay is server-internal,
        not a publisher write.
        """
        if self._closed:
            raise UpcallError(f"upcall group {self.topic!r} is closed")
        subscriber = self._subscribers.get(key)
        if subscriber is None:
            return False
        t_post = time.perf_counter() if self._stages is not None else 0.0
        if self._store is not None:
            args = (self._store.assign_seq(),) + args
        return self._offer(subscriber, _Event(args, t_post))

    def _offer(self, subscriber: _Subscriber, event: _Event) -> bool:
        """Offer one event to one queue, applying the slow policy."""
        if not subscriber.alive:
            return False
        if subscriber.durable is not None:
            if subscriber.replaying:
                # Mid-replay posts go to the log, behind the backlog
                # being drained — queueing them would reorder.
                self._spill_events(subscriber.durable, [event])
                return True
            if len(subscriber.queue) >= self.queue_limit:
                # Overflow on a durable subscriber spills instead of
                # dropping: the whole queue drains to the log (queued
                # events first, so seq order is preserved) and the
                # subscription flips to replaying — later posts spill
                # behind it and the pump drains queue-then-log.  The
                # pump stays attached: parking here would strand any
                # batch it already popped and is mid-delivering.
                self._spill_events(
                    subscriber.durable,
                    subscriber.queue.pop_all() + [event],
                )
                subscriber.replaying = True
                subscriber.idle.clear()
                if subscriber.parked:
                    subscriber.parked = False
                    subscriber.wakeup.set()
                self._update_store_gauges()
                return True
        outcome, discarded = subscriber.queue.offer(event)
        if outcome is Outcome.DROPPED:
            self.dropped += discarded
            if self._metrics is not None:
                self._metrics.counter("cluster.fanout.dropped").inc(discarded)
            return False
        if outcome is Outcome.EVICT:
            self._evict(
                subscriber,
                SlowSubscriberError(
                    f"subscriber {subscriber.key} on topic {self.topic!r} "
                    f"fell {len(subscriber.queue)} events behind "
                    f"(queue_limit={self.queue_limit})"
                ),
            )
            return False
        if outcome is Outcome.COALESCED:
            # The backlog collapsed; the new event superseded it.
            self.coalesced += discarded
            if self._metrics is not None:
                self._metrics.counter("cluster.fanout.coalesced").inc(discarded)
        subscriber.idle.clear()
        # Arm the wakeup only when the pump is actually parked on
        # it; an awake pump re-checks its queue before parking, so
        # posts during delivery cost two attribute reads, not an
        # Event.set() per subscriber per event.
        if subscriber.parked:
            subscriber.parked = False
            subscriber.wakeup.set()
        return True

    # -- durability (see repro.store) ---------------------------------------------

    @property
    def parked_subscribers(self) -> int:
        return len(self._parked)

    @property
    def parked_ids(self) -> list[str]:
        return list(self._parked)

    def _spill_events(self, durable, events: list) -> int:
        """Bundle and append events to a durable subscription's log.

        Uses the event's shared payload cache, so spilling to N parked
        subscribers (or spilling what live delivery already bundled)
        marshals each event at most once.
        """
        items = [
            (event.args[0], event.payload_for(durable.signature))
            for event in events
        ]
        durable.spill_many(items)
        self.spilled += len(items)
        if self._metrics is not None:
            self._metrics.counter("store.spilled_events").inc(len(items))
        return len(items)

    def _spill_parked(self, event: _Event) -> int:
        spilled = 0
        for durable in list(self._parked.values()):
            try:
                self._spill_events(durable, [event])
                spilled += 1
            except Exception as exc:
                # A failing disk must not take down the publisher; the
                # spool surfaces it as an incident and the event is
                # lost for this subscriber only.
                if self._spool is not None:
                    self._spool.incident(
                        "store-spill-failed",
                        f"{self.topic}/{durable.durable_id}: "
                        f"{type(exc).__name__}: {exc}",
                    )
        self._update_store_gauges()
        return spilled

    def _park(
        self, subscriber: _Subscriber, exc: Exception, undelivered=None
    ) -> None:
        """Spill a durable subscriber's backlog and detach its pump.

        The durable counterpart of :meth:`_evict`: same detach, but the
        queue (plus any ``undelivered`` batch remainder, which goes
        first to preserve seq order) lands in the spill log instead of
        the void, and the subscription waits in ``_parked`` for a
        re-subscribe or a session resume.
        """
        durable = subscriber.durable
        self._subscribers.pop(subscriber.key, None)
        events = list(undelivered or [])
        events.extend(subscriber.queue.pop_all())
        subscriber.pending = None  # spilled via ``undelivered`` above
        try:
            self._spill_events(durable, events)
        except Exception as spill_exc:
            if self._spool is not None:
                self._spool.incident(
                    "store-spill-failed",
                    f"{self.topic}/{durable.durable_id}: "
                    f"{type(spill_exc).__name__}: {spill_exc}",
                )
        durable.proc = subscriber.proc
        durable.parked_at = time.time()
        durable.parks += 1
        self._parked[durable.durable_id] = durable
        self.parks += 1
        if self._metrics is not None:
            self._metrics.counter("store.parks").inc()
        if self._tracer is not None and self._tracer.active:
            from repro.trace import KIND_FANOUT

            self._tracer.point(
                KIND_FANOUT,
                f"park {self.topic}#{subscriber.key}",
                detail=(
                    f"{durable.durable_id}: {type(exc).__name__}: {exc} "
                    f"({len(events)} events spilled)"
                ),
            )
        self._offer_report(subscriber, exc)
        self._detach(subscriber)
        self._ensure_resume_watcher()
        self._update_store_gauges()

    def _ensure_resume_watcher(self) -> None:
        if self._closed:
            return
        if self._resume_task is None or self._resume_task.done():
            self._resume_task = asyncio.get_running_loop().create_task(
                self._resume_watcher(), name=f"fanout-{self.topic}-resume"
            )

    async def _resume_watcher(self) -> None:
        """Re-attach parked subscriptions whose session came back.

        A client that reconnects within the server's linger window
        resumes its session — same Session object, same RUC bindings,
        fresh channels — so the parked subscription's remembered proc
        becomes deliverable again without the application re-calling
        subscribe.  This poll loop is the durable identity's half of
        that resume handshake.
        """
        while self._parked and not self._closed:
            await asyncio.sleep(self._resume_poll)
            for durable_id, durable in list(self._parked.items()):
                proc = durable.proc
                sender = getattr(proc, "sender", None)
                if sender is None:
                    continue
                if getattr(sender, "can_upcall", False):
                    try:
                        self.subscribe(
                            proc,
                            durable=durable_id,
                            signature=durable.signature,
                        )
                    except Exception:
                        continue

    def ack(self, durable_id: str, seq: int) -> int:
        """Advance a durable subscriber's cursor; returns the cursor.

        Cumulative and idempotent (max-merge, like CREDIT grants), so
        the ``store_ack`` RPC is retry-safe.  Acked prefixes are
        truncated from the spill log by compaction.
        """
        if self._store is None:
            raise StoreError(f"topic {self.topic!r} has no store")
        durable = self._store.subscription(durable_id)
        cursor = durable.ack(seq)
        self._update_store_gauges()
        return cursor

    def forget(self, durable_id: str) -> bool:
        """Drop a durable identity entirely (log, cursor, parked state)."""
        if self._store is None:
            raise StoreError(f"topic {self.topic!r} has no store")
        key = self._durable_key(durable_id)
        if key is not None:
            self.unsubscribe(key)
        self._parked.pop(durable_id, None)
        removed = self._store.forget(durable_id)
        self._update_store_gauges()
        return removed

    def _update_store_gauges(self) -> None:
        if self._spool is not None:
            self._spool.update_gauges()

    # -- delivery -----------------------------------------------------------------

    async def _pump(self, subscriber: _Subscriber) -> None:
        """Drain one subscriber in order, a whole batch per wakeup.

        Live events come from the queue, replayed ones from the spill
        log; both take the same :meth:`_send` and :meth:`_settle`.
        """
        # Everything this pump does — deliveries, and the upcall RTTs
        # the session records under them — is attributed to this topic
        # in the per-layer profile.  One contextvar store per pump
        # lifetime; the task's context is private, so no reset needed.
        set_layer(f"fanout.{self.topic}")
        try:
            while subscriber.alive:
                # Queue before log: events in the queue were posted
                # before anything the overflow path spilled, so they
                # carry the lower seqs and must go first.  While
                # replaying, _offer spills instead of enqueueing, so
                # the queue stays drained and replay owns the order.
                if subscriber.queue:
                    events = subscriber.queue.pop_all()
                    if subscriber.durable is not None:
                        subscriber.pending = events
                        subscriber.pending_from = 0
                    if self._stages is not None:
                        now = time.perf_counter()
                        observe = self._stages.instrument(STAGE_QUEUE).observe
                        for event in events:
                            if event.t_post:
                                observe((now - event.t_post) * 1e6)
                elif subscriber.replaying:
                    events = self._replay_events(subscriber)
                    if not events:
                        continue
                else:
                    subscriber.idle.set()
                    subscriber.wakeup.clear()
                    subscriber.parked = True
                    await subscriber.wakeup.wait()
                    continue
                # Probe the delivery path first: a RUC whose session
                # lost its channels would *degrade* the failed send to
                # a silent no-op (void upcall + degrade_upcalls), and
                # the group would keep feeding a dead subscriber.
                sender = getattr(subscriber.proc, "sender", None)
                if sender is not None and getattr(sender, "can_upcall", True) is False:
                    self._lost(subscriber, events, 0, UpcallError(
                        f"subscriber {subscriber.key} on topic "
                        f"{self.topic!r} has no live upcall channel"
                    ))
                    return
                outcomes = await self._send(subscriber, events)
                if not self._settle(subscriber, events, outcomes):
                    return
                subscriber.pending = None
        finally:
            subscriber.idle.set()

    def _replay_events(self, subscriber: _Subscriber) -> list:
        """The next window-shaped bite of the spill log, as events.

        The bite asks the session's upcall gate for headroom
        (:meth:`~repro.flow.CreditGate.headroom`), and the send itself
        blocks on the client's CREDIT grants, so a returning subscriber
        absorbs its backlog exactly as fast as it re-grants window.  An
        empty log flips the subscriber live — synchronously, with no
        await between the empty check and the flip, so no post can
        slip between the backlog and the queue.
        """
        durable = subscriber.durable
        gate = getattr(getattr(subscriber.proc, "sender", None), "upcall_gate", None)
        chunk = REPLAY_CHUNK if gate is None else gate.headroom(default=REPLAY_CHUNK)
        records = durable.replay(durable.acked, max_events=chunk)
        if not records:
            subscriber.replaying = False
            self._update_store_gauges()
        signature = subscriber.signature
        return [_Replayed(seq, payload, signature) for seq, payload in records]

    async def _send(self, subscriber: _Subscriber, events: list) -> list:
        """Deliver ``events`` in order; one outcome per event tried.

        An outcome is the handler's result or the exception it failed
        with.  A RUC whose sender batches gets one coalesced flush
        (``send_upcall_batch``): payloads come from each event's
        shared cache and the per-event ``frames`` dict rides along, so
        the session reuses encoded frame templates across subscribers.
        Anything else is awaited event by event.  Either way a dead
        delivery path (:class:`UpcallError`/:class:`TransportError`)
        is the last outcome returned.
        """
        proc = subscriber.proc
        batch_send = getattr(getattr(proc, "sender", None), "send_upcall_batch", None)
        signature = getattr(proc, "signature", None)
        if batch_send is not None and signature is not None:
            try:
                return await batch_send(
                    getattr(proc, "callback_id", 0),
                    [(event.payload_for(signature), event.frames) for event in events],
                )
            except _DEAD_PATH as exc:
                return [exc]
            except Exception as exc:
                # Marshalling trouble or a broken sender: nothing was
                # written and every event failed alike.
                return [exc] * len(events)
        outcomes = []
        for index, event in enumerate(events):
            if not subscriber.alive:
                break
            subscriber.pending_from = index
            try:
                result = proc(*event.args)
                if inspect.isawaitable(result):
                    result = await result
            except Exception as exc:
                outcomes.append(exc)
                if isinstance(exc, _DEAD_PATH):
                    break
            else:
                outcomes.append(result)
        return outcomes

    def _settle(self, subscriber: _Subscriber, events: list, outcomes: list) -> bool:
        """Count each event's outcome; False when the pump must exit.

        The one outcome rule, live and replayed alike: a success is
        delivered; a failure the subscriber's error port absorbs
        (:meth:`~repro.core.RemoteUpcall.degrades`) is delivered too;
        a dead delivery path parks a durable subscriber or evicts a
        plain one (:meth:`_lost`); any other failure is an error,
        reported and passed over.  Replayed events that settled are
        acknowledged in the log.
        """
        degrades = getattr(subscriber.proc, "degrades", None)
        durable = subscriber.durable
        delivered = errors = 0
        lost = None
        for index, outcome in enumerate(outcomes):
            if not isinstance(outcome, Exception):
                delivered += 1
                continue
            dead = isinstance(outcome, _DEAD_PATH)
            # A durable dead path parks without asking the error port,
            # which would absorb the failure and count an event the
            # client never saw as delivered.
            if (
                not (dead and durable is not None)
                and degrades is not None
                and degrades(outcome)
            ):
                delivered += 1
            elif dead:
                lost = index
                break
            else:
                errors += 1
                self._offer_report(subscriber, outcome)
        subscriber.delivered += delivered
        self.delivered += delivered
        self.errors += errors
        if self._metrics is not None:
            if delivered:
                self._metrics.counter("cluster.fanout.delivered").inc(delivered)
            if errors:
                self._metrics.counter("cluster.fanout.errors").inc(errors)
        settled = len(outcomes) if lost is None else lost
        if settled and isinstance(events[0], _Replayed):
            durable.ack(events[settled - 1].seq)
            self.replayed += settled
            if self._metrics is not None:
                self._metrics.counter("store.replayed_events").inc(settled)
                self._metrics.gauge("store.replay_lag_events").set(
                    durable.backlog_events
                )
        if lost is not None:
            self._lost(subscriber, events, lost, outcomes[lost])
            return False
        return True

    def _lost(
        self, subscriber: _Subscriber, events: list, index: int, exc: Exception
    ) -> None:
        """The delivery path died at ``events[index]``: park a durable
        subscriber with the rest of the batch, evict a plain one.

        Replayed events are still in the log, so nothing is respilled.
        """
        if subscriber.durable is None:
            self._evict(subscriber, exc)
        elif isinstance(events[0], _Replayed):
            self._park(subscriber, exc)
        else:
            self._park(subscriber, exc, undelivered=events[index:])

    def _evict(self, subscriber: _Subscriber, exc: Exception) -> None:
        self._subscribers.pop(subscriber.key, None)
        discarded = subscriber.queue.clear()
        self.evicted_subscribers += 1
        self.evicted_events += discarded
        if self._metrics is not None:
            self._metrics.counter("cluster.fanout.evicted_subscribers").inc()
            if discarded:
                self._metrics.counter("cluster.fanout.evicted_events").inc(discarded)
        if self._tracer is not None and self._tracer.active:
            from repro.trace import KIND_FANOUT

            self._tracer.point(
                KIND_FANOUT,
                f"evict {self.topic}#{subscriber.key}",
                detail=f"{type(exc).__name__}: {exc}",
            )
        self._offer_report(subscriber, exc)
        if self._on_evict is not None:
            try:
                self._on_evict(subscriber.key, exc)
            except Exception:
                pass
        self._detach(subscriber)

    def _offer_report(self, subscriber: _Subscriber, exc: Exception) -> None:
        """Route a failure into the §4.3 error-port degradation path.

        A RemoteUpcall carries its session as ``sender``; when the
        server runs with ``degrade_upcalls=True`` the session absorbs
        the report (counted, traced, replayed to the registered error
        handler).  Local subscribers have no sender — nothing to do.
        """
        sender = getattr(subscriber.proc, "sender", None)
        report = getattr(sender, "report_upcall_failure", None)
        if report is None:
            return
        try:
            report(getattr(subscriber.proc, "callback_id", 0), exc)
        except Exception:
            pass

    # -- draining and teardown ----------------------------------------------------

    async def flush(self, timeout: float | None = 10.0) -> None:
        """Wait until every live subscriber's queue has fully drained.

        Publishers that need a delivery fence (benchmarks, the §3.4
        ``sync`` idiom applied to fan-out) await this after posting.
        A replaying durable subscriber counts as busy until its spill
        log is drained — the fence covers replay, not just queues.

        On timeout the error is a :class:`~repro.errors.FlushTimeoutError`
        naming the lagging subscribers and their depths (still a
        ``TimeoutError``, so existing handlers keep catching it).
        """
        entries = [
            subscriber
            for subscriber in list(self._subscribers.values())
            if subscriber.alive
        ]
        if not entries:
            return
        gathered = asyncio.gather(*[s.idle.wait() for s in entries])
        try:
            if timeout is None:
                await gathered
            else:
                await asyncio.wait_for(gathered, timeout)
        except asyncio.TimeoutError:
            laggards = sorted(
                (s for s in entries if s.alive and not s.idle.is_set()),
                key=lambda s: -(
                    len(s.queue)
                    + (s.durable.backlog_events if s.durable is not None else 0)
                ),
            )
            parts = []
            for s in laggards[:5]:
                depth = f"#{s.key}: {len(s.queue)} queued"
                if s.durable is not None:
                    depth += (
                        f", {s.durable.backlog_events} spilled "
                        f"({s.durable.durable_id!r}"
                        + (", replaying)" if s.replaying else ")")
                    )
                parts.append(depth)
            raise FlushTimeoutError(
                f"flush of topic {self.topic!r} timed out after {timeout:g}s "
                f"with {len(laggards)} subscriber(s) still draining: "
                + "; ".join(parts)
            ) from None
        finally:
            gathered.cancel()

    async def close(self) -> None:
        """Detach every subscriber and stop the pumps.

        Durable subscribers' pending events are spilled first, so a
        clean shutdown loses nothing a re-subscribe could want.
        """
        self._closed = True
        if self._resume_task is not None and not self._resume_task.done():
            self._resume_task.cancel()
            try:
                await self._resume_task
            except (asyncio.CancelledError, Exception):
                pass
        subscribers = list(self._subscribers.values())
        self._subscribers.clear()
        for subscriber in subscribers:
            if subscriber.durable is not None:
                try:
                    self._spill_events(
                        subscriber.durable, self._undelivered(subscriber)
                    )
                except Exception:
                    pass
            self._detach(subscriber)
        for subscriber in subscribers:
            if subscriber.task is not None:
                try:
                    await subscriber.task
                except (asyncio.CancelledError, Exception):
                    pass

    def stats(self) -> dict[str, Any]:
        """Aggregate and per-subscriber delivery counters.

        Per-subscriber entries report queue ``depth`` and, for durable
        registrations, the spilled ``backlog_bytes`` still on disk;
        parked durable identities get their own section.
        """
        return {
            "topic": self.topic,
            "subscribers": len(self._subscribers),
            "posts": self.posts,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "coalesced": self.coalesced,
            "evicted_subscribers": self.evicted_subscribers,
            "evicted_events": self.evicted_events,
            "errors": self.errors,
            "parks": self.parks,
            "resumes": self.resumes,
            "spilled": self.spilled,
            "replayed": self.replayed,
            "per_subscriber": {
                key: {
                    "delivered": subscriber.delivered,
                    "dropped": subscriber.dropped,
                    "coalesced": subscriber.coalesced,
                    "queued": len(subscriber.queue),
                    "depth": len(subscriber.queue),
                    **(
                        {
                            "durable": subscriber.durable.durable_id,
                            "replaying": subscriber.replaying,
                            "backlog_events": subscriber.durable.backlog_events,
                            "backlog_bytes": subscriber.durable.backlog_bytes,
                        }
                        if subscriber.durable is not None
                        else {}
                    ),
                }
                for key, subscriber in self._subscribers.items()
            },
            "parked": {
                durable_id: {
                    "backlog_events": durable.backlog_events,
                    "backlog_bytes": durable.backlog_bytes,
                    "parks": durable.parks,
                    "acked": durable.acked,
                }
                for durable_id, durable in self._parked.items()
            },
        }
