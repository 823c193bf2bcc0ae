"""Durable subscription state: topic sequence numbers + per-id logs.

A durable topic assigns every posted event a **topic-level sequence
number** at ``post()`` time and prepends it to the event's arguments,
so a durable subscriber's procedure always sees ``(seq, *args)``.
That one convention buys the whole exactly-once story:

- the seq is assigned once per post, so the fan-out's encode-once
  payload caches stay shared across subscribers;
- spilled records are keyed by seq, replay order is seq order, and
  the acknowledge cursor is just "highest seq fully absorbed";
- the client can carry its cursor across a crash (it arrives inside
  every event) and deduplicate redelivery of the in-doubt window with
  a :class:`ReplayCursor` — no wire-protocol change required.

Sequence numbers must stay monotonic across server restarts even
though live deliveries are never logged.  The topic persists a
*reservation* high-water mark (``_seq.meta``, written once per
:data:`SEQ_LEASE` assignments, lease-style): recovery resumes past
``max(reservation, every log's tail)``, skipping at most one unused
lease window — gaps are harmless, regressions are not.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from typing import Callable

from repro.store.log import SubscriberLog
from repro.store.retention import Retention

#: Seq reservations are persisted once per this many assignments.
SEQ_LEASE = 256

_META = struct.Struct(">QI")  # reserved high-water, crc32


def safe_name(raw: str) -> str:
    """A filesystem-safe, collision-resistant name for an arbitrary id."""
    cleaned = "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in raw
    )
    if cleaned == raw and cleaned and not cleaned.startswith("."):
        return cleaned
    return f"{cleaned or 'id'}-{zlib.crc32(raw.encode()) & 0xFFFFFFFF:08x}"


class DurableSubscription:
    """One durable id's spill log plus the state the group needs back.

    ``proc``/``signature`` are remembered from the last subscribe so a
    session resume (same RUC, new channel generation) can re-attach
    without the application re-registering, and so events posted while
    parked can be bundled without a live subscriber object.
    """

    __slots__ = ("durable_id", "log", "signature", "proc", "parked_at", "parks")

    def __init__(self, durable_id: str, log: SubscriberLog):
        self.durable_id = durable_id
        self.log = log
        self.signature = None
        self.proc = None
        self.parked_at = 0.0
        self.parks = 0

    def spill(self, seq: int, payload: bytes) -> None:
        self.log.append(seq, payload)

    def spill_many(self, items: list[tuple[int, bytes]]) -> None:
        self.log.append_many(items)

    def replay(
        self, after_seq: int, *, max_events=None, max_bytes=None
    ) -> list[tuple[int, bytes]]:
        return self.log.replay(
            after_seq, max_events=max_events, max_bytes=max_bytes
        )

    def ack(self, seq: int) -> int:
        return self.log.ack(seq)

    @property
    def acked(self) -> int:
        return self.log.acked

    @property
    def backlog_events(self) -> int:
        return self.log.backlog_events

    @property
    def backlog_bytes(self) -> int:
        return self.log.backlog_bytes


class TopicStore:
    """Everything durable about one topic: seq counter + subscriptions."""

    def __init__(
        self,
        root: str,
        topic: str,
        *,
        fsync: str = "batch",
        sync_every: int = 64,
        retention: Retention | None = None,
        compact_bytes: int = 64 << 10,
        metrics=None,
        on_incident: Callable[[str, str], None] | None = None,
        clock: Callable[[], float] = time.time,
    ):
        self.topic = topic
        self.root = os.path.join(root, safe_name(topic))
        self.fsync = fsync
        self.sync_every = sync_every
        self.retention = retention
        self.compact_bytes = compact_bytes
        self._metrics = metrics
        self._on_incident = on_incident
        self._clock = clock
        self._subscriptions: dict[str, DurableSubscription] = {}
        os.makedirs(self.root, exist_ok=True)
        self._reserved = self._recover_seq_floor()
        self._next = self._reserved

    # -- sequence numbers ---------------------------------------------------------

    def _meta_path(self) -> str:
        return os.path.join(self.root, "_seq.meta")

    def _recover_seq_floor(self) -> int:
        """Highest seq that may already be in use, from meta + log tails."""
        floor = 0
        try:
            with open(self._meta_path(), "rb") as fh:
                raw = fh.read(_META.size)
            if len(raw) == _META.size:
                reserved, crc = _META.unpack(raw)
                if zlib.crc32(raw[:8]) == crc:
                    floor = reserved
        except FileNotFoundError:
            pass
        # A log tail past the reservation means the meta write was lost
        # (fsync="never" + power cut); trust the logs.
        from repro.store import format as fmt

        for entry in os.scandir(self.root):
            if not entry.name.endswith(".log"):
                continue
            try:
                with open(entry.path, "rb") as fh:
                    data = fh.read()
            except OSError:
                continue
            result = fmt.scan(data)
            if result.records:
                floor = max(floor, result.records[-1].seq)
        return floor

    def _persist_reservation(self) -> None:
        body = struct.pack(">Q", self._reserved)
        tmp = self._meta_path() + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(body + struct.pack(">I", zlib.crc32(body)))
            fh.flush()
            if self.fsync != "never":
                os.fsync(fh.fileno())
        os.replace(tmp, self._meta_path())

    def assign_seq(self) -> int:
        """Next topic sequence number; persists reservations lease-style."""
        self._next += 1
        if self._next > self._reserved:
            self._reserved = self._next + SEQ_LEASE
            self._persist_reservation()
        return self._next

    @property
    def last_seq(self) -> int:
        return self._next

    # -- subscriptions ------------------------------------------------------------

    def subscription(self, durable_id: str) -> DurableSubscription:
        """The (opened) subscription for a durable id, creating on first use."""
        sub = self._subscriptions.get(durable_id)
        if sub is None:
            log = SubscriberLog(
                os.path.join(self.root, safe_name(durable_id) + ".log"),
                fsync=self.fsync,
                sync_every=self.sync_every,
                retention=self.retention,
                compact_bytes=self.compact_bytes,
                metrics=self._metrics,
                on_incident=self._on_incident,
                clock=self._clock,
            ).open()
            sub = DurableSubscription(durable_id, log)
            self._subscriptions[durable_id] = sub
        elif sub.log.closed:
            sub.log.open()
        return sub

    def forget(self, durable_id: str) -> bool:
        """Drop a durable id entirely: close and delete its log."""
        sub = self._subscriptions.pop(durable_id, None)
        path = os.path.join(self.root, safe_name(durable_id) + ".log")
        if sub is not None:
            sub.log.close()
            path = sub.log.path
        removed = False
        for candidate in (path, path + ".ack"):
            try:
                os.remove(candidate)
                removed = True
            except FileNotFoundError:
                pass
        return removed

    @property
    def subscriptions(self) -> dict[str, DurableSubscription]:
        return dict(self._subscriptions)

    def backlog_bytes(self) -> int:
        return sum(s.backlog_bytes for s in self._subscriptions.values())

    def backlog_events(self) -> int:
        return sum(s.backlog_events for s in self._subscriptions.values())

    def stats(self) -> dict:
        return {
            "topic": self.topic,
            "last_seq": self._next,
            "subscriptions": {
                durable_id: sub.log.stats()
                for durable_id, sub in self._subscriptions.items()
            },
        }

    def close(self) -> None:
        for sub in self._subscriptions.values():
            sub.log.close()


class ReplayCursor:
    """Client-side exactly-once gate over ``(seq, *args)`` deliveries.

    The server replays everything after the last *acknowledged* seq,
    which may include an in-doubt window: events delivered just before
    a crash whose acks never made it back.  The client closes that
    window itself — every durable event carries its seq, so::

        cursor = ReplayCursor(restored_from_app_state)
        def on_event(seq, value):
            if cursor.admit(seq):
                apply(value)

    makes redelivery harmless.  ``admit`` accepts strictly increasing
    seqs only (per-connection order plus seq-ordered replay means a
    gap is impossible without data loss upstream).  Any ordered stamp
    serves as a seq: the directory watch admits ``(epoch, version)``
    tuples and the telemetry collector admits push seqs through it.
    """

    __slots__ = ("last", "duplicates")

    def __init__(self, last: int = 0):
        self.last = last
        self.duplicates = 0

    def admit(self, seq: int) -> bool:
        if seq <= self.last:
            self.duplicates += 1
            return False
        self.last = seq
        return True
