"""The four workloads: inputs from the seed, traffic, and correctness checks.

Each workload owns at most two :class:`~repro.ClamClient` sessions
(session A and session B), each the paper's §4.4 pair of streams, in
this one single-threaded load-generator process.  ``setup`` covers
everything up to the first timed operation; ``measure`` drives traffic
for a given time and returns its raw samples, or adds them to the
samples of earlier segments of the same run; every value and every
delivery is checked on the way and counted in the shared
:class:`~harness.Ledger`.
"""

from __future__ import annotations

import asyncio
import random
import struct
import time
from pathlib import Path

from repro.store import ReplayCursor

from harness import Host, Ledger, percentile, sleep_until
from layers import HubIface, KvIface, RucIface, kv_source
from spans import operation

_perf = time.perf_counter

#: Value sizes: small, medium, and one XDR page-sized value.
SIZES = (16, 256, 4096)
_HEADER = struct.Struct(">IQ")  # key, version
#: Bound on any wait for the system to answer or drain, seconds.
DRAIN_TIMEOUT = 20.0
#: Which get returns a damaged value, or which publisher seq goes
#: missing, under ``--inject`` (early enough to fall in the warm-up).
INJECT_AT = 40


class Values:
    """Seeded values: each (key, version) has one size and one content.

    A value starts with its key and version, so a reader can tell which
    write it sees, and the rest is a slice of a seeded blob, so any
    damaged byte is caught.
    """

    def __init__(self, rng: random.Random):
        self._blob = rng.randbytes(max(SIZES) + 256)
        self._sizes = [rng.choice(SIZES) for _ in range(1021)]

    def make(self, key: int, version: int) -> bytes:
        size = self._sizes[(key * 131 + version * 17) % len(self._sizes)]
        offset = (key + version) % 256
        return _HEADER.pack(key, version) + self._blob[offset:offset + size - _HEADER.size]

    def version_of(self, key: int, value: bytes) -> int | None:
        """The version ``value`` holds for ``key``; None when it is not a
        value ever written to that key."""
        if len(value) < _HEADER.size:
            return None
        stored_key, version = _HEADER.unpack_from(value)
        if stored_key != key or value != self.make(key, version):
            return None
        return version


class Series:
    """Samples stamped with the time they completed.

    The end-to-end figures are medians over fixed windows of the run:
    the machine's own noise comes in bursts shorter than a run, and a
    median over windows shrugs off a few disturbed ones.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def add(self, when: float, value: float) -> None:
        self.times.append(when)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def windows(self, start: float, end: float, width: float) -> list[list[float]]:
        count = max(1, int((end - start) / width))
        buckets: list[list[float]] = [[] for _ in range(count)]
        for when, value in zip(self.times, self.values):
            index = int((when - start) / width)
            if 0 <= index < count:
                buckets[index].append(value)
        return buckets


def _pct(samples_s, q: float) -> tuple[float, str, int]:
    """A percentile of second-valued samples, in µs, with its sample count."""
    values = samples_s.values if isinstance(samples_s, Series) else samples_s
    if not values:
        return float("nan"), "us", 0
    return percentile(values, q) * 1e6, "us", len(values)


def _median(values: list[float]) -> float:
    return percentile(values, 50) if values else float("nan")


def _buckets(series: Series, segments: list[tuple[float, float]],
             width: float) -> list[list[float]]:
    return [bucket for start, end in segments
            for bucket in series.windows(start, end, width)]


def windowed_rate(series: Series, segments: list[tuple[float, float]],
                  width: float) -> float:
    """Median over the windows of every segment of completions per second."""
    return _median([len(bucket) / width for bucket in _buckets(series, segments, width)])


def windowed_pct(series: Series, q: float, segments: list[tuple[float, float]],
                 width: float) -> float:
    """Median over the windows of every segment of each window's q-th
    percentile, in µs.

    Windows holding too few samples for the percentile to have ten
    beyond it are skipped (the outage windows of ``durable_resume``);
    NaN when none is left.
    """
    need = 10 * 100 / (100 - q)
    return _median([
        percentile(bucket, q) * 1e6
        for bucket in _buckets(series, segments, width)
        if len(bucket) >= need
    ])


class Workload:
    """Shared shape; subclasses fill in ``setup``/``measure``/``report``."""

    name = ""
    #: Open or closed loop, and its rate or session count.
    loop = ""

    def __init__(self, seed: int, ledger: Ledger, workdir: Path, *,
                 server_cpu: int, traced: bool = False, inject: str = ""):
        self.rng = random.Random(seed)
        self.ledger = ledger
        self.workdir = workdir
        self.server_cpu = server_cpu
        self.traced = traced
        self.inject = inject
        self.host: Host | None = None
        self.clients: list = []
        #: Every session opened, closed ones included, for metric deltas.
        self.all_clients: list = []
        self.rid = 0

    async def start_host(self, drop_seq: int = -1) -> Host:
        self.host = await Host.start(self.workdir, cpu=self.server_cpu,
                                     spans=self.traced, drop_seq=drop_seq)
        return self.host

    async def connect(self):
        client = await self.host.connect(call_timeout=DRAIN_TIMEOUT)
        self.clients.append(client)
        self.all_clients.append(client)
        return client

    async def close(self) -> None:
        for client in self.clients:
            try:
                await client.close()
            except Exception as exc:  # a failed close still must not leak the server
                self.ledger.fail(f"close: {type(exc).__name__}: {exc}")
        self.clients.clear()
        if self.host is not None:
            await self.host.stop()
            self.host = None

    async def call(self, what: str, awaitable):
        """Await one operation, counting errors and timeouts as failures.

        Under tracing, each operation gets its own request id, carried
        to the server in the protocol's trace context.
        """
        try:
            if self.traced:
                self.rid += 1
                with operation(self.rid):
                    return await awaitable
            return await awaitable
        except Exception as exc:
            self.ledger.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    async def wait_for(self, predicate, what: str) -> bool:
        """Poll until ``predicate()`` holds; a timeout is a failure."""
        deadline = _perf() + DRAIN_TIMEOUT
        while not predicate():
            if _perf() > deadline:
                self.ledger.fail(f"timed out waiting for {what}")
                return False
            await asyncio.sleep(0.001)
        return True

    async def trace(self, on: bool) -> None:
        """Switch span recording in the server process on or off."""
        hub = await self.clients[0].lookup(HubIface, "bench.hub")
        await hub.trace(on)


# ---------------------------------------------------------------------------
# rpc_calls


class RpcCalls(Workload):
    name = "rpc_calls"
    loop = "closed loop, 2 sessions with one call outstanding each"
    KEYS = 512
    #: Call mix: 30% nop, 50% get, 20% ruc (a call making one upcall).
    NOP, GET = 0.3, 0.8
    WINDOW = 1.0

    async def setup(self) -> None:
        await self.start_host()
        self.values = Values(self.rng)
        corrupt = INJECT_AT if self.inject == "wrong_value" else -1
        a = await self.connect()
        b = await self.connect()
        await a.load_module("kv", kv_source(corrupt))
        kv = await a.create(KvIface)
        await a.publish("bench.kv", kv)
        self.sessions = []
        for client in (a, b):
            proxy = kv if client is a else await client.lookup(KvIface, "bench.kv")
            ruc = await client.create(RucIface)
            offset = 1000 * (len(self.sessions) + 1)

            def proc(x: int, offset=offset) -> int:
                return x * 7 + offset

            await ruc.register(proc)
            self.sessions.append((proxy, ruc, offset))
        for key in range(self.KEYS):
            await kv.put(key, self.values.make(key, 0))
        if await kv.nop() != self.KEYS:
            raise RuntimeError("key-value layer did not take the initial writes")
        await self.measure(0.3)  # warm-up: bundler plans, pools, caches

    async def measure(self, seconds: float, result: dict | None = None) -> dict:
        if result is None:
            result = {"call": Series(), "ruc": Series(), "ops": Series(), "segments": []}
        started = _perf()
        deadline = started + seconds
        await asyncio.gather(*(
            self._session(session, random.Random(self.rng.random()), deadline, result)
            for session in self.sessions
        ))
        result["segments"].append((started, deadline))
        return result

    async def _session(self, session, rng: random.Random, deadline: float,
                       result: dict) -> None:
        kv, ruc, offset = session
        ledger, values = self.ledger, self.values
        calls, rucs, ops = result["call"], result["ruc"], result["ops"]
        while _perf() < deadline:
            draw = rng.random()
            ledger.attempted += 1
            t0 = _perf()
            if draw < self.NOP:
                got = await self.call("nop", kv.nop())
                now = _perf()
                calls.add(now, now - t0)
                ledger.check(got == self.KEYS, f"nop returned {got!r}")
            elif draw < self.GET:
                key = rng.randrange(self.KEYS)
                got = await self.call("get", kv.get(key))
                now = _perf()
                calls.add(now, now - t0)
                ledger.check(
                    got is not None and values.version_of(key, got) == 0,
                    f"get({key}) returned a value never written to it",
                )
            else:
                x = rng.randrange(1 << 20)
                got = await self.call("ruc", ruc.ruc(x))
                now = _perf()
                rucs.add(now, now - t0)
                ledger.check(got == x * 7 + offset, f"ruc({x}) returned {got!r}")
            ops.add(now, 1)

    def report(self, result: dict) -> dict:
        rate = windowed_rate(result["ops"], result["segments"], self.WINDOW)
        return {
            "calls_per_s": (rate, "1/s", len(result["ops"])),
            "call_p50_us": _pct(result["call"], 50),
            "call_p90_us": (windowed_pct(result["call"], 90, result["segments"], self.WINDOW),
                            "us", len(result["call"])),
            "call_p99_us": _pct(result["call"], 99),
            "ruc_p50_us": _pct(result["ruc"], 50),
            "ruc_p99_us": _pct(result["ruc"], 99),
        }

    def headline(self, result: dict) -> dict:
        segments = result["segments"]
        return {
            "ops_per_s": windowed_rate(result["ops"], segments, self.WINDOW),
            "p50_us": _pct(result["call"], 50)[0],
            "aux_p50_us": _pct(result["ruc"], 50)[0],
        }

    def ops(self, result: dict) -> int:
        return len(result["ops"])


# ---------------------------------------------------------------------------
# write_read


class WriteRead(Workload):
    name = "write_read"
    loop = "closed loop: session A writes 64-put batches, session B reads"
    KEYS = 4096
    BATCH = 64
    WINDOW = 1.0

    async def setup(self) -> None:
        await self.start_host()
        self.values = Values(self.rng)
        corrupt = INJECT_AT if self.inject == "wrong_value" else -1
        a = await self.connect()
        b = await self.connect()
        await a.load_module("kv", kv_source(corrupt))
        self.kv_a = await a.create(KvIface)
        await a.publish("bench.kv", self.kv_a)
        self.kv_b = await b.lookup(KvIface, "bench.kv")
        #: Highest version posted / confirmed executed, per key.
        self.posted = [0] * self.KEYS
        self.confirmed = [0] * self.KEYS
        for key in range(self.KEYS):
            await self.kv_a.put(key, self.values.make(key, 0))
        if await self.kv_a.nop() != self.KEYS:
            raise RuntimeError("key-value layer did not take the initial writes")
        await self.measure(0.3)

    async def measure(self, seconds: float, result: dict | None = None) -> dict:
        if result is None:
            result = {"reads": Series(), "batches": Series(), "segments": []}
        started = _perf()
        deadline = started + seconds
        await asyncio.gather(
            self._writer(random.Random(self.rng.random()), deadline, result["batches"]),
            self._reader(random.Random(self.rng.random()), deadline, result["reads"]),
        )
        result["segments"].append((started, deadline))
        return result

    async def _writer(self, rng: random.Random, deadline: float, batches: Series) -> None:
        kv, values, ledger = self.kv_a, self.values, self.ledger
        posted, confirmed = self.posted, self.confirmed
        while _perf() < deadline:
            t0 = _perf()
            batch = []
            for _ in range(self.BATCH):
                key = rng.randrange(self.KEYS)
                version = posted[key] + 1
                posted[key] = version
                batch.append((key, version))
                ledger.attempted += 1
                await self.call("put", kv.put(key, values.make(key, version)))
            # The value-returning call flushes the batch and, answered,
            # confirms every put in it executed.
            got = await self.call("nop", kv.nop())
            if not ledger.check(got == self.KEYS, f"nop returned {got!r}"):
                continue
            now = _perf()
            batches.add(now, now - t0)
            for key, version in batch:
                if version > confirmed[key]:
                    confirmed[key] = version

    async def _reader(self, rng: random.Random, deadline: float, reads: Series) -> None:
        kv, values, ledger = self.kv_b, self.values, self.ledger
        while _perf() < deadline:
            key = rng.randrange(self.KEYS)
            floor = self.confirmed[key]
            ledger.attempted += 1
            t0 = _perf()
            got = await self.call("get", kv.get(key))
            now = _perf()
            reads.add(now, now - t0)
            if got is None:
                continue
            version = values.version_of(key, got)
            # The read may see any write between the last one confirmed
            # before it was sent and the last one posted by its reply.
            ledger.check(
                version is not None and floor <= version <= self.posted[key],
                f"get({key}) returned version {version}, "
                f"expected {floor}..{self.posted[key]}",
            )

    def _posts_per_s(self, result: dict) -> float:
        return windowed_rate(result["batches"], result["segments"], self.WINDOW) * self.BATCH

    def report(self, result: dict) -> dict:
        reads = windowed_rate(result["reads"], result["segments"], self.WINDOW)
        return {
            "calls_per_s": (reads, "1/s", len(result["reads"])),
            "call_p50_us": _pct(result["reads"], 50),
            "call_p90_us": (windowed_pct(result["reads"], 90, result["segments"], self.WINDOW),
                            "us", len(result["reads"])),
            "call_p99_us": _pct(result["reads"], 99),
            "posts_per_s": (self._posts_per_s(result), "1/s",
                            len(result["batches"]) * self.BATCH),
            "batch_p50_us": _pct(result["batches"], 50),
        }

    def headline(self, result: dict) -> dict:
        return {
            "ops_per_s": self._posts_per_s(result),
            "p50_us": _pct(result["reads"], 50)[0],
            "aux_p50_us": _pct(result["batches"], 50)[0],
        }

    def ops(self, result: dict) -> int:
        return len(result["reads"]) + len(result["batches"]) * (self.BATCH + 1)


# ---------------------------------------------------------------------------
# fan-out


class _Subscription:
    """One subscriber's view of a topic: in-order, exactly-once checks."""

    def __init__(self, name: str, ledger: Ledger, on_delivery):
        self.name = name
        self.ledger = ledger
        self.next_seq = 0
        self._on_delivery = on_delivery

    def __call__(self, tseq: int, seq: int, due: float) -> None:
        now = _perf()
        if seq != self.next_seq:
            if seq < self.next_seq:
                self.ledger.fail(f"{self.name}: seq {seq} duplicated or out of order")
                return
            self.ledger.fail(
                f"{self.name}: seq {self.next_seq}..{seq - 1} missing",
                seq - self.next_seq,
            )
        self.next_seq = seq + 1
        self._on_delivery(seq, due, now)


class Fanout(Workload):
    name = "fanout"
    #: Paced publish rate: about a quarter of the burst capacity.
    RATE = 300.0
    loop = f"open loop at {RATE:.0f} events/s into 4 subscriptions, then bursts"
    #: Share of each segment spent in the paced phase; bursts fill the rest.
    PACED_SHARE = 0.6
    BURST = 800
    SUBSCRIBERS = 4
    WINDOW = 1.0

    async def setup(self) -> None:
        self.publish_seq = 0
        drop = INJECT_AT if self.inject == "missing_delivery" else -1
        await self.start_host(drop_seq=drop)
        a = await self.connect()
        b = await self.connect()
        self.hub = await a.lookup(HubIface, "bench.hub")
        hub_b = await b.lookup(HubIface, "bench.hub")
        self._arrivals: dict[int, list[float]] = {}
        self.latencies: Series | None = None
        self.subs = []
        # Two upper layers per client process; one subscription durable.
        for name, hub, durable in (("a0", self.hub, ""), ("a1", self.hub, ""),
                                   ("b0", hub_b, ""), ("b1", hub_b, "fan-b1")):
            sub = _Subscription(name, self.ledger, self._delivered)
            await hub.join(sub, "fanout", durable, 0)
            self.subs.append(sub)
        await self._paced(_perf() + 0.3, [], None)

    def _delivered(self, seq: int, due: float, now: float) -> None:
        if self.latencies is not None:
            self.latencies.add(now, now - due)
        arrivals = self._arrivals.get(seq)
        if arrivals is not None:
            arrivals.append(now)

    async def _publish(self, due: float) -> int:
        seq = self.publish_seq
        self.publish_seq += 1
        self.ledger.attempted += self.SUBSCRIBERS
        await self.call("publish", self.hub.publish("fanout", seq, due))
        return seq

    async def _drained(self) -> bool:
        last = self.publish_seq
        return await self.wait_for(
            lambda: all(sub.next_seq >= last for sub in self.subs),
            "fan-out deliveries",
        )

    async def _paced(self, deadline: float, lags: list, completions) -> None:
        start = _perf()
        i = 0
        while True:
            due = start + i / self.RATE
            if due >= deadline:
                break
            await sleep_until(due)
            lags.append(_perf() - due)
            seq = await self._publish(due)
            if completions is not None:
                self._arrivals[seq] = []
                completions.append((seq, due))
            i += 1
        await self._drained()

    async def measure(self, seconds: float, result: dict | None = None) -> dict:
        if result is None:
            result = {"segments": [], "deliveries": Series(), "complete": [],
                      "lags": [], "burst_rates": []}
        started = _perf()
        paced_end = started + seconds * self.PACED_SHARE
        self.latencies, completions = result["deliveries"], []
        self._arrivals = {}
        await self._paced(paced_end, result["lags"], completions)
        self.latencies = None
        # Time until the slowest of the four subscriptions has the event.
        result["complete"].extend(
            max(self._arrivals[seq]) - due
            for seq, due in completions
            if len(self._arrivals[seq]) == self.SUBSCRIBERS
        )
        self._arrivals = {}
        bursts = 0
        deadline = started + seconds
        while not bursts or _perf() < deadline:
            t0 = _perf()
            for _ in range(self.BURST):
                await self._publish(t0)
            if not await self._drained():
                break
            result["burst_rates"].append(self.BURST * self.SUBSCRIBERS / (_perf() - t0))
            bursts += 1
        result["segments"].append((started, paced_end))
        return result

    def report(self, result: dict) -> dict:
        return {
            "deliver_p50_us": _pct(result["deliveries"], 50),
            "deliver_p90_us": (windowed_pct(result["deliveries"], 90, result["segments"],
                                            self.WINDOW), "us", len(result["deliveries"])),
            "deliver_p99_us": _pct(result["deliveries"], 99),
            "complete_p50_us": _pct(result["complete"], 50),
            "burst_deliveries_per_s": (_median(result["burst_rates"]), "1/s",
                                       len(result["burst_rates"])),
        }

    def headline(self, result: dict) -> dict:
        return {
            "ops_per_s": _median(result["burst_rates"]),
            "p50_us": _pct(result["deliveries"], 50)[0],
            "aux_p50_us": _pct(result["complete"], 50)[0],
        }

    def ops(self, result: dict) -> int:
        return len(result["deliveries"]) + (
            self.BURST * self.SUBSCRIBERS * len(result["burst_rates"])
        )


# ---------------------------------------------------------------------------
# durable resume


class DurableResume(Workload):
    name = "durable_resume"
    RATE = 1000.0
    loop = (f"open loop at {RATE:.0f} events/s into one durable subscription "
            "that drops out for 0.5 s, 0.6-1.0 s (seeded) into each segment")
    DURABLE_ID = "resume-b"
    WINDOW = 1.0
    #: How long session B stays away; the gaps between outages are seeded.
    OUTAGE = 0.5

    async def setup(self) -> None:
        self.publish_seq = 0
        drop = INJECT_AT if self.inject == "missing_delivery" else -1
        await self.start_host(drop_seq=drop)
        a = await self.connect()
        self.hub = await a.lookup(HubIface, "bench.hub")
        self.cursor = ReplayCursor()
        self.next_seq = 0
        self.admitted = 0
        self.live_from = float("inf")
        self.latencies = Series()
        self.b = None
        await self._subscribe()
        await self._paced(_perf() + 0.3, [])
        await self.wait_for(lambda: self.next_seq >= self.publish_seq, "warm-up deliveries")

    def _on_event(self, tseq: int, seq: int, due: float) -> None:
        now = _perf()
        if not self.cursor.admit(tseq):
            return  # redelivery from the in-doubt window: harmless
        self.admitted += 1
        if seq != self.next_seq:
            if seq < self.next_seq:
                self.ledger.fail(f"durable: seq {seq} out of order")
                return
            self.ledger.fail(
                f"durable: seq {self.next_seq}..{seq - 1} missing (gap)",
                seq - self.next_seq,
            )
        self.next_seq = seq + 1
        if due >= self.live_from:
            self.latencies.add(now, now - due)

    async def _subscribe(self) -> float:
        """(Re)connect session B and join durably from the cursor; returns
        the time the join call was made."""
        self.b = await self.connect()
        hub_b = await self.b.lookup(HubIface, "bench.hub")
        joined = _perf()
        await self.call(
            "join", hub_b.join(self._on_event, "events", self.DURABLE_ID, self.cursor.last)
        )
        return joined

    async def _paced(self, deadline: float, lags: list) -> None:
        start = _perf()
        i = 0
        while True:
            due = start + i / self.RATE
            if due >= deadline:
                return
            await sleep_until(due)
            lags.append(_perf() - due)
            seq = self.publish_seq
            self.publish_seq += 1
            self.ledger.attempted += 1
            await self.call("publish", self.hub.publish("events", seq, due))
            i += 1

    async def _outages(self, deadline: float, rng: random.Random, catchups: list) -> None:
        self.live_from = _perf()
        while True:
            await asyncio.sleep(rng.uniform(0.6, 1.0))
            outage = self.OUTAGE
            if _perf() + outage + 0.4 > deadline:
                return
            # Live latency counts only events posted while B is caught up.
            self.live_from = float("inf")
            client, self.b = self.b, None
            self.clients.remove(client)
            await client.close()
            await asyncio.sleep(outage)
            target = self.publish_seq
            backlog = target - self.next_seq
            joined = await self._subscribe()
            if await self.wait_for(lambda: self.next_seq >= target, "durable catch-up"):
                caught_up = _perf()
                catchups.append((caught_up - joined, backlog))
                self.live_from = caught_up

    async def measure(self, seconds: float, result: dict | None = None) -> dict:
        if result is None:
            result = {"segments": [], "lags": [], "catchups": [], "deliveries": Series(),
                      "admitted": 0, "duplicates": 0}
        started = _perf()
        deadline = started + seconds
        self.latencies = result["deliveries"]
        dups_before = self.cursor.duplicates
        admitted_before = self.admitted
        await asyncio.gather(
            self._paced(deadline, result["lags"]),
            self._outages(deadline, random.Random(self.rng.random()), result["catchups"]),
        )
        await self.wait_for(lambda: self.next_seq >= self.publish_seq, "durable deliveries")
        self.live_from = float("inf")
        result["admitted"] += self.admitted - admitted_before
        result["duplicates"] += self.cursor.duplicates - dups_before
        result["segments"].append((started, deadline))
        return result

    def report(self, result: dict) -> dict:
        catchups = result["catchups"]
        return {
            "deliver_p50_us": _pct(result["deliveries"], 50),
            "deliver_p90_us": (windowed_pct(result["deliveries"], 90, result["segments"],
                                            self.WINDOW), "us", len(result["deliveries"])),
            "deliver_p99_us": _pct(result["deliveries"], 99),
            "catchup_ms": (_median([c for c, _ in catchups]) * 1e3, "ms", len(catchups)),
            "catchup_events": (_median([n for _, n in catchups]), "count", len(catchups)),
        }

    def headline(self, result: dict) -> dict:
        catchups = result["catchups"]
        return {
            "ops_per_s": _median([n / c for c, n in catchups]),
            "p50_us": _pct(result["deliveries"], 50)[0],
            "aux_p50_us": _median([c for c, _ in catchups]) * 1e6,
        }

    def ops(self, result: dict) -> int:
        return result["admitted"]


WORKLOADS = {cls.name: cls for cls in (RpcCalls, WriteRead, Fanout, DurableResume)}
