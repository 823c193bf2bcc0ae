"""Process plumbing shared by the workloads: the server process, /proc
readings, percentiles and the failure ledger."""

from __future__ import annotations

import asyncio
import os
import sys
import time
from pathlib import Path

from repro import ClamClient

HERE = Path(__file__).resolve().parent
#: Longest socket path we bind directly; AF_UNIX paths stop at 107 bytes.
_MAX_SOCKET_PATH = 100


def percentile(samples: list[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100), linear between closest ranks."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def cpu_seconds(pid: int | str = "self") -> float:
    """CPU time a process's main thread has run, from /proc/<pid>/schedstat.

    Nanosecond resolution, and time the hypervisor gave to other guests
    (steal) is not in it.
    """
    with open(f"/proc/{pid}/schedstat") as fh:
        return int(fh.read().split()[0]) / 1e9


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Ledger:
    """Attempted operations and the failures among them.

    Every check the workloads make goes through :meth:`check`; a
    failure is an error or timeout, a wrong value, or a delivery that is
    missing, duplicated or out of order.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.examples) < 10:
            self.examples.append(what)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok


class Host:
    """The server process (``host.py``) and its UNIX-domain address."""

    def __init__(self, proc: asyncio.subprocess.Process, url: str, spans: str):
        self.proc = proc
        self.url = url
        self.spans = spans

    @property
    def pid(self) -> int:
        return self.proc.pid

    @classmethod
    async def start(
        cls, workdir: Path, *, cpu: int, spans: bool = False, drop_seq: int = -1
    ) -> "Host":
        workdir.mkdir(parents=True, exist_ok=True)
        socket = workdir / "clam.sock"
        path = str(socket)
        if len(path) > _MAX_SOCKET_PATH:
            # Both processes run in the checkout root, so the short
            # /proc/self/cwd alias names the same file for each.
            path = "/proc/self/cwd/" + os.path.relpath(socket)
        span_file = str(workdir / "server.spans") if spans else ""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(HERE.parent / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / "host.py"),
            "--socket", path, "--spool", str(workdir / "spool"),
            "--spans", span_file, "--drop-seq", str(drop_seq), "--cpu", str(cpu),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        host = cls(proc, f"unix://{path}", span_file)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), 60.0)
        except asyncio.TimeoutError:
            line = b""
        if line.strip() != b"READY":
            await host.stop()
            raise RuntimeError(f"server process did not start (said {line!r})")
        return host

    async def connect(self, **kwargs) -> ClamClient:
        return await ClamClient.connect(self.url, **kwargs)

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.pid)

    async def stop(self) -> None:
        """Close the server's stdin and wait for it to exit."""
        proc = self.proc
        if proc.returncode is None:
            proc.stdin.close()
            try:
                await asyncio.wait_for(proc.wait(), 30.0)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()


def placement() -> tuple[int, int]:
    """CPUs for (load generator, server): the first two this process may
    use, or the same one twice on a single-CPU machine."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[1 % len(allowed)]


class IdleSpinner:
    """A busy loop at SCHED_IDLE priority, pinned to one CPU (``spinner.py``).

    It runs only when nothing else on that CPU wants to, and is
    preempted the moment a benchmark process wakes.  Its point is that
    the virtual CPU then never halts: on a small VM, waking a halted
    vCPU waits for the hypervisor to schedule it again, which adds a
    variable fraction of a millisecond to every cross-process hop (a
    nop round trip between two vCPUs took 0.6-2.4 ms without spinners
    and 0.34-0.39 ms with them on the VM this was written on).  The
    fixed work it repeats also gauges the CPU's speed (:class:`SpeedGauge`).
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.proc: asyncio.subprocess.Process | None = None

    async def start(self) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / "spinner.py"), str(self.cpu),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        )
        await asyncio.wait_for(self.proc.stdout.readline(), 30.0)

    async def reading(self) -> tuple[int, int]:
        """(work units done, CPU ns used) so far."""
        self.proc.stdin.write(b"\n")
        await self.proc.stdin.drain()
        units, cpu_ns = (await asyncio.wait_for(self.proc.stdout.readline(), 30.0)).split()
        return int(units), int(cpu_ns)

    async def stop(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


class SpeedGauge:
    """How fast the benchmark's CPUs run interpreter code right now.

    On a shared machine a vCPU's speed drifts with what other guests do:
    on the VM this was written on, the same closed loop completed 1.8
    times as many calls in one 16-second stretch as in another a few
    minutes away, and its CPU time per call moved with it.  The gauge
    lets the benchmark report its times and throughputs on a fixed
    reference CPU instead.

    :meth:`idle` lets the spinners run alone for a short slice, with the
    benchmark quiet, and returns their speed: work units per CPU-second,
    over both CPUs.  (Read while the benchmark runs, the spinners'
    speed tracked the benchmark's less well: they then run in the gaps
    it leaves, in slices of every length.)  :meth:`factor` turns speeds
    into the factor that scales a time to the reference CPU, one whose
    spinners do :data:`REFERENCE_SPEED` units per CPU-second.
    """

    #: Units per CPU-second of the reference CPU: about the median of
    #: the 2-vCPU VM the bounds were set on.
    REFERENCE_SPEED = 1.0e6
    #: How much of a change in the spinners' speed the benchmark's own
    #: figures follow, as an exponent: over 68 runs of the four
    #: workloads on that VM, spread over two hours, the slope of
    #: log(figure) on log(speed) was 0.67-0.78 for latency, CPU time per
    #: operation and throughput alike.  The spinners' tight loop feels
    #: the host more than a program that also waits for wakeups.
    ELASTICITY = 0.75
    #: Length of one idle slice, seconds.
    SLICE = 0.25

    def __init__(self, spinners: list[IdleSpinner]) -> None:
        self.spinners = spinners

    async def _mark(self) -> list[tuple[int, int]]:
        return list(await asyncio.gather(*(s.reading() for s in self.spinners)))

    async def idle(self) -> float:
        before = await self._mark()
        await asyncio.sleep(self.SLICE)
        after = await self._mark()
        units = sum(a[0] - b[0] for a, b in zip(after, before))
        cpu_ns = sum(a[1] - b[1] for a, b in zip(after, before))
        return units * 1e9 / cpu_ns if cpu_ns > 0 else float("nan")

    def factor(self, speeds: list[float]) -> float:
        """Multiply a time measured while the CPUs ran at ``speeds`` by
        this to get it on the reference CPU (divide a throughput by it)."""
        mean = sum(speeds) / len(speeds)
        return (mean / self.REFERENCE_SPEED) ** self.ELASTICITY


async def sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)
