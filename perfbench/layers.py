"""The layers the benchmark puts into the server, and their client views.

``KV_SOURCE`` is shipped by the load generator with ``load_module``
(paper §2): a key-value layer (``nop``/``get``/``put``) and an upcall
layer whose ``ruc`` makes one synchronous distributed upcall into a
procedure the calling session registered.  :class:`Hub` is embedded by
the host program before it starts serving (§4.2 embedding) and fans
published events out through :class:`repro.cluster.UpcallGroup`.

The ``*Iface`` classes are the load generator's declarations of those
server classes; proxies are generated from them.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster import UpcallGroup
from repro.stubs import RemoteInterface

#: Source of the dynamically loaded layers.  ``CORRUPT_AT`` is a
#: fault-injection hook for the benchmark's own tests: when >= 0, the
#: get with that index (counting from 0) returns a damaged value.
KV_SOURCE = '''
from typing import Callable

from repro.stubs import RemoteInterface

CORRUPT_AT = -1


class Kv(RemoteInterface):
    def __init__(self):
        self.data = {}
        self.gets = 0

    def nop(self) -> int:
        return len(self.data)

    def get(self, key: int) -> bytes:
        value = self.data[key]
        self.gets += 1
        if self.gets - 1 == CORRUPT_AT:
            return value[:-1] + bytes([value[-1] ^ 0xFF])
        return value

    def put(self, key: int, value: bytes) -> None:
        self.data[key] = value


class Ruc(RemoteInterface):
    def __init__(self):
        self.proc = None

    def register(self, proc: Callable[[int], int]) -> bool:
        self.proc = proc
        return True

    async def ruc(self, x: int) -> int:
        return await self.proc(x)
'''


def kv_source(corrupt_at: int = -1) -> str:
    """The layer source, optionally with the wrong-value fault armed."""
    return KV_SOURCE.replace("CORRUPT_AT = -1", f"CORRUPT_AT = {corrupt_at}")


class KvIface(RemoteInterface):
    __clam_class__ = "Kv"

    def nop(self) -> int: ...
    def get(self, key: int) -> bytes: ...
    def put(self, key: int, value: bytes) -> None: ...


class RucIface(RemoteInterface):
    __clam_class__ = "Ruc"

    def register(self, proc: Callable[[int], int]) -> bool: ...
    def ruc(self, x: int) -> int: ...


#: Handler signature on both topics: (topic seq, publisher seq, due time).
EventProc = Callable[[int, int, float], None]

#: Per-subscriber queue bound.  Large enough that the fan-out burst
#: never overflows it, so a drop is always a defect, never the policy.
QUEUE_LIMIT = 1 << 15


class Hub(RemoteInterface):
    """Host-embedded fan-out hub with two durable-capable topics.

    ``fanout`` carries the fan-out workload, ``events`` the durable
    resume workload; both are built with the server's spool so their
    subscribers may register durably.
    """

    TOPICS = ("fanout", "events")
    __clam_local__ = ("close",)

    def __init__(self, spool=None, metrics=None, drop_seq: int = -1):
        self.groups = {
            topic: UpcallGroup(
                topic, store=spool, queue_limit=QUEUE_LIMIT, metrics=metrics
            )
            for topic in self.TOPICS
        }
        #: Fault-injection hook for the benchmark's own tests: the
        #: event with this publisher seq is swallowed on every topic.
        self.drop_seq = drop_seq
        #: Set by the host when tracing is available: called with True
        #: or False to switch span recording on or off.
        self.trace_switch = None

    def join(self, proc: EventProc, topic: str, durable: str, resume_from: int) -> int:
        group = self.groups[topic]
        if durable:
            return group.subscribe(proc, durable=durable, resume_from=resume_from)
        return group.subscribe(proc)

    def publish(self, topic: str, seq: int, due: float) -> None:
        if seq == self.drop_seq:
            return
        self.groups[topic].post(seq, due)

    def trace(self, on: bool) -> bool:
        if self.trace_switch is None:
            return False
        self.trace_switch(on)
        return True

    async def close(self) -> None:
        for group in self.groups.values():
            await group.close()


class HubIface(RemoteInterface):
    __clam_class__ = "Hub"

    def join(self, proc: EventProc, topic: str, durable: str, resume_from: int) -> int: ...
    def publish(self, topic: str, seq: int, due: float) -> None: ...
    def trace(self, on: bool) -> bool: ...
