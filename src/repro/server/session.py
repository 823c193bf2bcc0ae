"""Per-client sessions: the two channels of §4.4.

"So there are actually at most two channels of communication between
each client and the server.  One channel is used for RPC requests
from the client and the other is used for upcalls from the server.
... CLAM provides separate unix streams for each communication
channel."

A :class:`Session` is created when a client's RPC channel says hello;
the client then opens its upcall channel carrying the session token.
The session owns:

- the session bundler registry (child of the server's, plus the
  session-bound procedure-pointer and object-pointer resolvers);
- the per-session :class:`~repro.rpc.Dispatcher`;
- the upcall sender implementing :class:`~repro.core.UpcallSender`,
  with the §4.4 one-active-upcall-per-client gate.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import secrets
import time
from typing import TYPE_CHECKING

from repro.errors import ConnectionClosedError, RemoteError, UpcallError
from repro.core import install_server_callbacks
from repro.flow import CreditGate, message_cost
from repro.ipc import MessageChannel
from repro.obs.context import SpanContext, current_context
from repro.obs.profile import HOST_LAYER, current_layer
from repro.obs.stages import STAGE_GATE, STAGE_WRITE
from repro.rpc import Dispatcher, install_server_objects
from repro.tasks import Slots
from repro.wire import (
    CreditMessage,
    Message,
    UpcallExceptionMessage,
    UpcallReplyMessage,
    encode_upcall_template,
    patch_upcall_frame,
)

if TYPE_CHECKING:
    from repro.server.clam import ClamServer


class Session:
    """One connected client: registry, dispatcher, upcall channel."""

    def __init__(self, server: "ClamServer"):
        self.server = server
        self.token = secrets.token_hex(16)
        self.registry = server.base_registry.child()
        install_server_objects(self.registry, server.exports)
        install_server_callbacks(self.registry, self)
        self.dispatcher = Dispatcher(
            self.registry,
            exports=server.exports,
            async_error=server.async_call_failed,
            call_guard=server.guard_call,
            call_failed=server.call_failed,
            tracer=server.tracer,
            metrics=server.metrics,
            profiler=server.profiler,
            flight=server.flight,
            on_incident=server.note_incident,
        )
        self._upcall_channel: MessageChannel | None = None
        self.rpc_channel: MessageChannel | None = None  # set by the server
        #: Bumped by the server each time the RPC stream is *resumed*;
        #: an upcall stream remembers the generation it attached in, so
        #: a post-reconnect attachment can tell itself apart from an
        #: illegal duplicate (§4.4: at most one live upcall stream).
        self.generation = 0
        self._upcall_generation = -1
        # §4.4: "we allow only one upcall to be active per client
        # process.  This limitation ... may be relaxed in future
        # designs."  The relaxation is the server-wide
        # max_active_upcalls knob; 1 is the paper's discipline.
        self._upcall_slots = Slots(server.max_active_upcalls)
        self._upcall_serials = itertools.count(1)
        self._waiting: dict[int, asyncio.Future] = {}
        self.upcalls_sent = 0
        # The upcall stream's credit window, roles reversed from the
        # RPC stream: the *server* produces, the client grants.  The
        # gate starts unlimited and engages only when the client sends
        # its first grant (a v4 two-stream client does so right after
        # HELLO), so anything that never grants — old clients,
        # single-stream mode, bare tests — behaves exactly as before.
        self.upcall_gate = CreditGate(
            unlimited=True,
            send_probe=self._send_upcall_probe,
            metrics=server.metrics,
            tracer=server.tracer,
            name="flow.credit",
            channel="upcall",
        )

    # -- upcall channel attachment -----------------------------------------------

    @property
    def has_upcall_channel(self) -> bool:
        return self._upcall_channel is not None and not self._upcall_channel.closed

    @property
    def can_upcall(self) -> bool:
        """True while some live channel could carry an upcall.

        False during a linger window (client dropped, may reconnect)
        and after teardown.  Layers that hold many procedure pointers
        (fan-out groups) probe this before delivering, so a dead
        subscriber is detected even when ``degrade_upcalls`` would
        silently absorb the failed send.
        """
        channel = self._upcall_channel if self.has_upcall_channel else self.rpc_channel
        return channel is not None and not channel.closed

    async def run_upcall_channel(self, channel: MessageChannel) -> None:
        """Service the second stream (HELLO role=UPCALL already consumed).

        Runs for the lifetime of the connection, feeding upcall replies
        back to the server tasks blocked in :meth:`send_upcall`.
        """
        if self.has_upcall_channel:
            if self._upcall_generation == self.generation:
                raise UpcallError("session already has an upcall channel")
            # The RPC stream was resumed since the old upcall stream
            # attached: this is the reconnecting client's replacement.
            await self._upcall_channel.close()
        self._upcall_channel = channel
        self._upcall_generation = self.generation
        # Fresh channel, fresh credit arithmetic: unlimited until this
        # channel's client announces its first grant.
        self.upcall_gate.reset(unlimited=True)
        try:
            while True:
                message = await channel.recv()
                self._dispatch_reply(message)
        except ConnectionClosedError as exc:
            self._fail_waiting(exc)
        except Exception as exc:
            self._fail_waiting(UpcallError(f"upcall channel corrupted: {exc}"))
        finally:
            # A reconnecting client may already have attached its new
            # upcall stream before this (dead) one's loop unwound; only
            # detach if the slot still holds our channel.
            if self._upcall_channel is channel:
                self._upcall_channel = None
                # Wake producers stalled on this channel's window; they
                # proceed to the send, which then reports the real
                # failure (dead channel), instead of probing forever.
                self.upcall_gate.reset(unlimited=True)

    async def _send_upcall_probe(self, used_msgs: int, used_bytes: int) -> None:
        channel = self._upcall_channel
        if channel is not None and not channel.closed:
            await channel.send(
                CreditMessage(
                    msg_credit=used_msgs, byte_credit=used_bytes, probe=True
                )
            )

    def _dispatch_reply(self, message: Message) -> None:
        if isinstance(message, CreditMessage):
            # The client's grant for our upcall window.  The first one
            # engages the gate; after that, max-merge makes duplicated
            # or reordered grants harmless.
            if not message.probe:
                if self.upcall_gate.unlimited:
                    self.upcall_gate.reset(unlimited=False)
                self.upcall_gate.update(message.msg_credit, message.byte_credit)
            return
        if isinstance(message, UpcallReplyMessage):
            future = self._waiting.get(message.serial)
            if future is not None and not future.done():
                future.set_result(message.results)
        elif isinstance(message, UpcallExceptionMessage):
            future = self._waiting.get(message.serial)
            if future is not None and not future.done():
                future.set_exception(
                    RemoteError(message.remote_type, message.message, message.traceback)
                )
        else:
            self._fail_waiting(
                UpcallError(f"unexpected message on upcall channel: {message!r}")
            )

    def _fail_waiting(self, exc: Exception) -> None:
        for future in self._waiting.values():
            if not future.done():
                future.set_exception(exc)
        self._waiting.clear()

    # -- UpcallSender protocol (what RUC objects call) ------------------------------

    def _upcall_path(self) -> MessageChannel:
        channel = self._upcall_channel if self.has_upcall_channel else self.rpc_channel
        if channel is None or channel.closed:
            raise UpcallError(
                "client has no channel for upcalls (neither a dedicated "
                "upcall stream nor a live RPC stream)"
            )
        return channel

    async def send_upcall(self, callback_id: int, args: bytes) -> bytes:
        """Perform one distributed upcall to this client.

        Blocks the calling server task until the client task finishes
        (§4.3) and admits at most ``max_active_upcalls`` concurrent
        upcalls per client (1 by default — the §4.4 discipline).

        The upcall travels on the dedicated upcall channel when the
        client opened one; a single-stream client (see
        ``ClamClient.connect(channels="one")``) receives it multiplexed
        onto its RPC stream.  In single-stream mode the upcall must
        originate from a server *task* — an RPC handler awaiting an
        upcall inline would block the very stream the reply arrives on.

        It is a one-item batch: the same slot, credit, serial and
        frame code as :meth:`send_upcall_batch`, with the outcome
        raised instead of returned.
        """
        channel = self._upcall_path()
        with self._upcall_span(f"ruc-{callback_id}") as ctx:
            (result,) = await self._send_locked(
                callback_id, ((args, None),), channel, ctx
            )
            if isinstance(result, Exception):
                raise result
            return result

    async def send_upcall_batch(
        self, callback_id: int, items
    ) -> list[bytes | Exception]:
        """Deliver a coalesced batch of upcalls to this client.

        ``items`` is a sequence of ``(payload, frame_cache)`` pairs —
        the bundled argument bytes of each event plus a per-event dict
        (shared across subscribers by the fan-out group) that caches
        encoded frame templates, so an N-subscriber fan-out marshals
        each event into frame bytes exactly once.  ``frame_cache`` may
        be ``None`` for one-off callers.

        One §4.4 slot acquisition, one credit-window pass
        (:meth:`~repro.flow.CreditGate.acquire_batch`), and one
        coalesced write+drain cover the whole batch, so per-event cost
        tracks the wire, not the scheduler.  The §4.4 discipline bounds
        active *batches* per client; the client still runs the handlers
        strictly in order, one at a time.

        Per-event failures (handler raised, reply timed out) come back
        in the result list as exceptions in event order; a dead
        delivery path raises — the caller (the pump) treats that as an
        eviction, exactly as for a single send.
        """
        if not items:
            return []
        channel = self._upcall_path()
        with self._upcall_span(f"ruc-{callback_id} x{len(items)}") as ctx:
            return await self._send_locked(callback_id, items, channel, ctx)

    def _upcall_span(self, name: str):
        """The trace span an upcall send runs in; yields the context
        stamped onto its frames."""
        tracer = self.server.tracer
        if tracer.active:
            from repro.trace import KIND_UPCALL

            return tracer.span(KIND_UPCALL, name)
        return contextlib.nullcontext(current_context())

    async def _send_locked(
        self,
        callback_id: int,
        items,
        channel,
        ctx: SpanContext | None = None,
    ) -> list[bytes | Exception]:
        """The one upcall send: slot, window, frames, replies, metrics."""
        stages = self.server.stages
        metrics = self.server.metrics
        trace_id = ctx.trace_id if ctx else ""
        parent_span = ctx.span_id if ctx else 0
        version = channel.protocol_version
        results: list[bytes | Exception] = []
        t_entry = time.perf_counter()
        async with self._upcall_slots:
            index = 0
            while index < len(items):
                pending = items[index:]
                # Interactive traffic still honours the client's window:
                # a client that stopped draining upcalls stalls the
                # server task here (bounded by upcall_timeout below)
                # rather than ballooning the client's queue.  One window
                # pass covers the whole chunk; a batch wider than the
                # client's grant flushes in window-sized slices.
                taken = await self.upcall_gate.acquire_batch(
                    [message_cost(payload) for payload, _ in pending]
                )
                chunk = pending[:taken]
                started = time.perf_counter()
                if stages is not None:
                    # Gate stage: §4.4 slot + credit window, amortized
                    # per event so the stage histograms keep one
                    # observation per delivery and their means still
                    # decompose the per-event latency.
                    gate_us = (started - t_entry) * 1e6 / taken
                    for _ in range(taken):
                        stages.observe(STAGE_GATE, gate_us)
                serials: list[int] = []
                futures: list[asyncio.Future] = []
                frames: list[bytearray] = []
                loop = asyncio.get_running_loop()
                for payload, cache in chunk:
                    serial = next(self._upcall_serials)
                    serials.append(serial)
                    future: asyncio.Future = loop.create_future()
                    futures.append(future)
                    self._waiting[serial] = future
                    # Encode once per event (per version/trace context),
                    # then patch the two per-send header fields.  The
                    # payload object doubles as the cache key: the
                    # fan-out group hands every subscriber the same
                    # bytes object, so hits compare by identity.
                    key = (version, trace_id, parent_span, payload)
                    template = cache.get(key) if cache is not None else None
                    if template is None:
                        template = encode_upcall_template(
                            payload,
                            trace_id=trace_id,
                            parent_span=parent_span,
                            version=version,
                        )
                        if cache is not None:
                            cache[key] = template
                    frames.append(patch_upcall_frame(template, serial, callback_id))
                self.upcalls_sent += taken
                try:
                    await channel.send_encoded(frames)
                    if stages is not None:
                        write_us = (time.perf_counter() - started) * 1e6 / taken
                        for _ in range(taken):
                            stages.observe(STAGE_WRITE, write_us)
                    timeout = self.server.upcall_timeout
                    for future in futures:
                        try:
                            if timeout is None:
                                reply = await future
                            else:
                                reply = await asyncio.wait_for(future, timeout)
                        except asyncio.TimeoutError:
                            # A late reply will find no waiter and be dropped.
                            results.append(UpcallError(
                                f"client did not complete the upcall within "
                                f"{timeout}s; releasing the server task "
                                f"(§4.3 blocking bounded by upcall_timeout)"
                            ))
                        except Exception as exc:
                            results.append(exc)
                        else:
                            results.append(reply)
                finally:
                    # On any exit — the send failed, the task was
                    # cancelled mid-wait — no reply for this chunk is
                    # awaited any more: drop every serial, cancel the
                    # futures still open and retrieve the settled ones,
                    # so a later _fail_waiting or GC reports nothing.
                    for serial, future in zip(serials, futures):
                        self._waiting.pop(serial, None)
                        if not future.cancel() and not future.cancelled():
                            future.exception()
                if metrics is not None:
                    rtt_us = (time.perf_counter() - started) * 1e6 / taken
                    rtt_hist = metrics.histogram("upcall.server.rtt_us")
                    profiler = self.server.profiler
                    # Attribute the round trip to whatever layer's
                    # dynamic extent we are running in — a fan-out
                    # pump, an RPC handler's layer, or the host.
                    layer = current_layer() or HOST_LAYER
                    for payload, _ in chunk:
                        rtt_hist.observe(rtt_us)
                        if profiler is not None:
                            profiler.record_upcall(layer, rtt_us, len(payload))
                index += taken
                t_entry = time.perf_counter()
        return results

    def upcall_reply(self, message: Message) -> None:
        """Route an upcall reply that arrived on the RPC stream
        (single-stream mode)."""
        self._dispatch_reply(message)

    def report_upcall_failure(self, callback_id: int, exc: Exception) -> bool:
        """RUC degradation hook (see :class:`repro.core.RemoteUpcall`).

        Returns True when the server's policy absorbed the failure —
        it was recorded and routed to the §4 error-report port — so a
        void upcall may degrade to no-op instead of raising into
        whatever server layer held the procedure pointer.
        """
        return self.server.absorb_upcall_failure(self.token, callback_id, exc)

    # -- teardown -----------------------------------------------------------------------

    async def close(self) -> None:
        self._fail_waiting(ConnectionClosedError("session closed"))
        if self._upcall_channel is not None:
            await self._upcall_channel.close()
            self._upcall_channel = None
        if self.rpc_channel is not None:
            await self.rpc_channel.close()
            self.rpc_channel = None
