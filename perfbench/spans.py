"""Span recording around the public entry points of each ``src/repro`` layer.

The benchmark's traced run patches the classes and module functions
listed in :data:`CLIENT_POINTS` / :data:`SERVER_POINTS` with thin
wrappers that record one span per call: name, start, end, parent span
and request id.  Nothing inside ``src/repro`` changes; switching
tracing off restores the original attributes, so the timed runs execute
pristine code.

Spans live in memory as parallel :mod:`array` columns (about 40 bytes a
span) and are written out once, when the run ends.  The parent of a
span is whichever wrapped call was open in the same task when it began
(a :class:`contextvars.ContextVar`, so it follows awaits).  The request
id is read from the trace context the protocol already carries
(:mod:`repro.obs.context`): the load generator opens one context per
operation, the CALL message carries its ``trace_id`` across, and the
server's dispatcher makes it current around the handler — so a server
span is linked to the client operation that caused it.

A span's *self time* is its duration minus the part of its interval
covered by its child spans (see :func:`aggregate`).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import json
import time
from array import array
from contextvars import ContextVar
from typing import Any, Callable, Iterator

from repro.obs.context import SpanContext, current_context, using_context

_perf = time.perf_counter
_parent: ContextVar[int] = ContextVar("perfbench-parent-span", default=-1)


def _size_one(args: tuple, result: Any) -> tuple[int, int]:
    return 1, len(args[1])


def _size_many(args: tuple, result: Any) -> tuple[int, int]:
    frames = args[1]
    if not isinstance(frames, (list, tuple)):
        return 0, 0
    return len(frames), sum(len(frame) for frame in frames)


def _items(args: tuple, result: Any) -> tuple[int, int]:
    return len(args[2]), 0


def _records(args: tuple, result: Any) -> tuple[int, int]:
    return len(args[1]), 0


def _one(args: tuple, result: Any) -> tuple[int, int]:
    return 1, 0


def _returned(args: tuple, result: Any) -> tuple[int, int]:
    return len(result), 0


#: (module, attribute path, span name, counter): the counter, when set,
#: maps a call's positional arguments and result to (items, bytes),
#: added to the span name's tallies.
_COMMON = [
    ("repro.ipc.channel", "encode_message", "wire.encode", None),
    ("repro.ipc.channel", "decode_message", "wire.decode", None),
    ("repro.ipc.channel", "MessageChannel.send", "ipc.send", None),
    ("repro.ipc.channel", "MessageChannel.send_many", "ipc.send", None),
    ("repro.ipc.channel", "MessageChannel.send_encoded", "ipc.send", None),
    ("repro.ipc.transport", "StreamConnection.send", "ipc.write", _size_one),
    ("repro.ipc.transport", "StreamConnection.send_many", "ipc.write", _size_many),
    ("repro.flow.credits", "CreditGate.acquire", "flow.credit_wait", None),
    ("repro.tasks.sync", "Slots.__aenter__", "tasks.slot_wait", None),
]

CLIENT_POINTS = _COMMON + [
    ("repro.stubs.signature", "BoundMethod.bundle_request", "stubs.client_marshal", None),
    ("repro.stubs.signature", "BoundMethod.unbundle_reply", "stubs.client_marshal", None),
    ("repro.rpc.connection", "RpcConnection.call", "rpc.call", None),
    ("repro.rpc.connection", "RpcConnection.post", "rpc.post", None),
    ("repro.rpc.batch", "BatchQueue.flush", "rpc.batch.flush", None),
    ("repro.core.ruc", "UpcallSignature.unbundle_args", "core.upcall_stub", None),
    ("repro.core.ruc", "UpcallSignature.bundle_result", "core.upcall_stub", None),
]

SERVER_POINTS = _COMMON + [
    ("repro.stubs.signature", "BoundMethod.unbundle_request", "stubs.server_marshal", None),
    ("repro.stubs.signature", "BoundMethod.bundle_reply", "stubs.server_marshal", None),
    ("repro.stubs.server", "Skeleton.dispatch", "stubs.dispatch", None),
    ("repro.rpc.dispatcher", "Dispatcher.handle_message", "rpc.handle", None),
    ("repro.server.session", "encode_upcall_template", "wire.encode", None),
    ("repro.server.session", "patch_upcall_frame", "wire.patch", _one),
    ("repro.server.session", "Session.send_upcall", "server.send_upcall", None),
    ("repro.server.session", "Session.send_upcall_batch", "server.send_upcall_batch", _items),
    ("repro.core.ruc", "RemoteUpcall.__call__", "core.ruc", None),
    ("repro.core.ruc", "UpcallSignature.bundle_args", "core.upcall_stub", None),
    ("repro.core.ruc", "UpcallSignature.unbundle_result", "core.upcall_stub", None),
    ("repro.loader.faults", "FaultIsolator.check", "loader.guard", None),
    ("repro.cluster.group", "UpcallGroup.post", "cluster.post", None),
    ("repro.store.log", "SubscriberLog.append", "store.append", _one),
    ("repro.store.log", "SubscriberLog.append_many", "store.append", _records),
    ("repro.store.log", "SubscriberLog.replay", "store.replay", _returned),
    ("repro.store.log", "SubscriberLog.ack", "store.ack", None),
]


class SpanLog:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, points: list[tuple[str, str, str, Any]]):
        self.points = points
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.rid = array("Q")
        #: span name -> [items, bytes] tallied by the point's counter.
        self.tally: dict[str, list[int]] = collections.defaultdict(lambda: [0, 0])
        self._saved: list[tuple[Any, str, Any]] = []

    # -- switching ------------------------------------------------------------------

    def switch(self, on: bool) -> None:
        if on and not self._saved:
            for module_name, path, span, counter in self.points:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span, counter))
        elif not on:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    # -- recording -------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn: Callable, span: str, counter) -> Callable:
        nid = self._name_id(span)
        names, starts, ends = self.name, self.start, self.end
        parents, rids, tally = self.parent, self.rid, self.tally[span]

        def opened() -> int:
            idx = len(starts)
            names.append(nid)
            starts.append(_perf())
            ends.append(0.0)
            parents.append(_parent.get())
            rids.append(_rid_of(current_context()))
            return idx

        def count(args: tuple, result: Any) -> None:
            items, size = counter(args, result)
            tally[0] += items
            tally[1] += size

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                idx = opened()
                token = _parent.set(idx)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    _parent.reset(token)
                    ends[idx] = _perf()
                if counter is not None:
                    count(args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = opened()
            token = _parent.set(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                _parent.reset(token)
                ends[idx] = _perf()
            if counter is not None:
                count(args, result)
            return result

        return wrapper

    # -- export ------------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as one JSON header line plus raw columns."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "tally": dict(self.tally),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.rid):
                column.tofile(fh)

    def columns(self) -> dict:
        return {
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rid": self.rid,
            "tally": {k: list(v) for k, v in self.tally.items()},
        }


def load(path: str) -> dict:
    """Read a :meth:`SpanLog.dump` file back as columns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        columns: dict[str, Any] = {"names": header["names"], "tally": header["tally"]}
        for key, code in (("name", "H"), ("start", "d"), ("end", "d"),
                          ("parent", "l"), ("rid", "Q")):
            column = array(code)
            column.fromfile(fh, n)
            columns[key] = column
    return columns


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parts, attr = path.split(".")
    for part in parts:
        owner = getattr(owner, part)
    return owner, attr


def _rid_of(ctx: SpanContext | None) -> int:
    if ctx is None or not ctx.trace_id:
        return 0
    try:
        return int(ctx.trace_id, 16)
    except ValueError:
        return 0


@contextlib.contextmanager
def operation(rid: int) -> Iterator[None]:
    """Make ``rid`` the request id of everything the block causes.

    Request ids are carried as the trace id, so they cross into the
    server on CALL messages and back out on UPCALL messages.
    """
    with using_context(SpanContext(trace_id=f"{rid:016x}", span_id=rid)):
        yield


def aggregate(columns: dict) -> dict[str, dict[str, Any]]:
    """Per span name: ``count``, ``linked`` (spans carrying a request
    id), and per-span ``dur_us`` and ``self_us`` lists, plus
    ``parent_dur_us``, the durations of the spans that had children.

    Self time is the span's duration minus the union of its children's
    intervals, each clipped to the parent's interval (children started
    from a task the span spawned may outlive it).
    """
    names, name = columns["names"], columns["name"]
    start, end, parent, rid = (
        columns["start"], columns["end"], columns["parent"], columns["rid"]
    )
    children: dict[int, list[int]] = collections.defaultdict(list)
    for idx, p in enumerate(parent):
        if p >= 0:
            children[p].append(idx)
    out: dict[str, dict[str, Any]] = {}
    for idx in range(len(start)):
        s, e = start[idx], end[idx]
        if e <= 0.0:
            continue  # still open when the log was cut
        covered = 0.0
        kids = children.get(idx)
        if kids:
            spans = sorted(
                (max(start[k], s), min(end[k] if end[k] > 0 else e, e)) for k in kids
            )
            cur_s, cur_e = spans[0]
            for ks, ke in spans[1:]:
                if ks > cur_e:
                    covered += max(0.0, cur_e - cur_s)
                    cur_s, cur_e = ks, ke
                else:
                    cur_e = max(cur_e, ke)
            covered += max(0.0, cur_e - cur_s)
        entry = out.get(names[name[idx]])
        if entry is None:
            entry = out[names[name[idx]]] = {
                "count": 0, "linked": 0, "dur_us": [], "self_us": [],
                "parent_dur_us": [],
            }
        entry["count"] += 1
        entry["dur_us"].append((e - s) * 1e6)
        entry["self_us"].append((e - s - covered) * 1e6)
        if kids:
            entry["parent_dur_us"].append((e - s) * 1e6)
        if rid[idx]:
            entry["linked"] += 1
    return out
