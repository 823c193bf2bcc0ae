"""Cross-process end-to-end benchmark of the CLAM reproduction.

    python3 perfbench/run.py --workload rpc_calls --seed 1 --seconds 20 --trace 0

Starts the server as its own process (``host.py``) on a UNIX-domain
socket, drives one of the workloads in ``workloads.py`` from this
single-threaded load-generator process through at most two sessions,
checks every result, and prints a human-readable report followed, on
the last line, by one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, times and throughputs scaled to a reference CPU
(see :func:`_scaled`); the report above the JSON line prints them as
measured too.  With
``--trace 1`` the run alternates untraced and traced windows, and the
metrics are the per-layer ones (see ``layer_metrics.py``), including
the tracing overhead.

Set-up (server spawn, connect, load, register, warm-up) is repeated
``SETUPS`` times and its median is ``setup_s``.  The exit code is 0
only when every check passed.  Run from the root of a checkout: the
program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

from harness import (  # noqa: E402
    IdleSpinner, Ledger, SpeedGauge, cpu_seconds, percentile, placement,
)
from layer_metrics import add_counters, layer_metrics, scrape  # noqa: E402
from spans import CLIENT_POINTS, SpanLog  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Longest segment of a timed run, and window of a traced run, seconds;
#: long enough for one ``durable_resume`` outage and catch-up.
SEGMENT = 2.5

#: End-to-end metrics: name -> (unit, power of the CPU speed factor that
#: scales the metric to the reference CPU: 1 for a time, -1 for a
#: throughput, 0 for memory; see :func:`_scaled`).  Each is defined on
#: every workload (see README.md for what it measures on which).
END_TO_END = {
    "setup_s": ("s", 1),
    "ops_per_s": ("1/s", -1),
    "p50_us": ("us", 1),
    "aux_p50_us": ("us", 1),
    "cpu_us_per_op": ("us", 1),
    "server_rss_mb": ("MB", 0),
}


async def bench(args: argparse.Namespace, workdir: Path) -> tuple[Ledger, dict, list[str]]:
    ledger = Ledger()
    cls = WORKLOADS[args.workload]
    setup_times, setup_speeds = [], []
    workload = None
    loadgen_cpu, server_cpu = placement()
    spinners = [IdleSpinner(cpu) for cpu in sorted({loadgen_cpu, server_cpu})]
    gauge = SpeedGauge(spinners)
    try:
        for spinner in spinners:
            await spinner.start()
        os.sched_setaffinity(0, {loadgen_cpu})
        for i in range(SETUPS):
            if workload is not None:
                await workload.close()
            workload = cls(args.seed, ledger, workdir / f"setup-{i}",
                           server_cpu=server_cpu, traced=bool(args.trace),
                           inject=args.inject)
            before = await gauge.idle()
            started = time.perf_counter()
            await workload.setup()
            setup_times.append(time.perf_counter() - started)
            setup_speeds.append([before, await gauge.idle()])
        if args.trace:
            metrics, lines = await _traced(workload, args.seconds)
        else:
            measured = await _measured(workload, args.seconds, gauge)
            raw = {
                **workload.headline(measured["result"]),
                "setup_s": percentile(setup_times, 50),
                "cpu_us_per_op": measured["cpu_us_per_op"],
                "server_rss_mb": workload.host.peak_rss_mb(),
            }
            values = _scaled(raw, gauge.factor(measured["speeds"]))
            values["setup_s"] = percentile(
                [t * gauge.factor(speeds) for t, speeds in zip(setup_times, setup_speeds)], 50
            )
            lines = _report(workload, measured, raw, values, len(setup_times))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, (unit, _) in END_TO_END.items()}
        for name, entry in metrics.items():
            if not math.isfinite(entry["value"]):
                ledger.fail(f"{name} could not be measured (run too short?)")
                entry["value"] = 0.0
    finally:
        if workload is not None:
            await workload.close()
        for spinner in spinners:
            await spinner.stop()
    return ledger, metrics, lines


def _scaled(raw: dict, factor: float) -> dict:
    """The end-to-end metrics on the reference CPU.

    ``factor`` comes from the speed the spinners measured in the idle
    slices of the run (:meth:`harness.SpeedGauge.factor`): times are
    multiplied by it, throughputs divided.  A change to the program does
    not move the spinners' speed, so it moves the scaled metrics as much
    as the raw ones; a change in how fast the machine runs moves both
    the spinners and the program, and mostly cancels.
    """
    return {name: raw[name] * factor ** power for name, (_, power) in END_TO_END.items()}


async def _measured(workload, seconds: float, gauge: SpeedGauge | None = None) -> dict:
    """One timed run, with both processes' CPU time around it.

    With a gauge, the run is split into segments of at most
    :data:`SEGMENT` seconds, with an idle slice before, between and
    after them, whose speeds are returned as ``speeds``.
    """
    segments = max(1, math.ceil(seconds / SEGMENT)) if gauge is not None else 1
    speeds = [await gauge.idle()] if gauge is not None else []
    server_cpu = workload.host.cpu_seconds()
    own_cpu = cpu_seconds()
    started = time.perf_counter()
    result = None
    for _ in range(segments):
        # A hang (say, a producer stalled on credits forever) must end
        # the run with an error, not outlive the caller's patience.
        result = await asyncio.wait_for(
            workload.measure(seconds / segments, result), seconds / segments + 60
        )
        if gauge is not None:
            speeds.append(await gauge.idle())
    wall = time.perf_counter() - started
    server_cpu = workload.host.cpu_seconds() - server_cpu
    own_cpu = cpu_seconds() - own_cpu
    return {
        "result": result,
        "speeds": speeds,
        "wall": wall,
        "server_cpu": server_cpu,
        "loadgen_cpu": own_cpu,
        "cpu_us_per_op": (server_cpu + own_cpu) * 1e6 / max(1, workload.ops(result)),
    }


async def _traced(workload, seconds: float) -> tuple[dict, list[str]]:
    """Windows alternately untraced and traced; per-layer metrics from the
    traced ones, process figures from the untraced ones, and the tracing
    overhead from both."""
    pairs = max(1, int(seconds / (2 * SEGMENT)))
    width = seconds / (2 * pairs)
    log = SpanLog(CLIENT_POINTS)
    plain, traced, counters = [], [], {}
    for _ in range(pairs):
        plain.append(await _measured(workload, width))
        before = await scrape(workload)
        log.switch(True)
        await workload.trace(True)
        traced.append(await _measured(workload, width))
        await workload.trace(False)
        log.switch(False)
        add_counters(counters, before, await scrape(workload))
    server_spans = workload.host.spans
    await workload.close()  # the server writes its spans as it exits
    metrics = layer_metrics(workload, plain, traced, log, server_spans, counters)
    lines = [f"{name:<32} {entry['value']:>14.6g} {entry['unit']}"
             for name, entry in metrics.items()]
    return metrics, lines


def _report(workload, measured: dict, raw: dict, values: dict, setups: int) -> list[str]:
    """The human-readable lines: every metric the workload defines, as
    measured, then the end-to-end metrics scaled to the reference CPU."""
    result = measured["result"]
    lines = [f"workload {workload.name}: {workload.loop}", "  as measured:"]
    rows = {"setup_s": (raw["setup_s"], "s", setups)}
    rows.update(workload.report(result))
    rows["cpu_us_per_op"] = (raw["cpu_us_per_op"], "us", workload.ops(result))
    rows["server_rss_mb"] = (raw["server_rss_mb"], "MB", None)
    speeds = measured["speeds"]
    rows["cpu_speed"] = (sum(speeds) / len(speeds), "units/s", len(speeds))
    for name, (value, unit, count) in rows.items():
        suffix = f"  (n={count})" if count is not None else ""
        lines.append(f"  {name:<26} {value:>14.2f} {unit}{suffix}")
    lines.append("  on the reference CPU "
                 f"({SpeedGauge.REFERENCE_SPEED:.3g} units/s), as gated:")
    for name, (unit, _) in END_TO_END.items():
        lines.append(f"  {name:<26} {values[name]:>14.2f} {unit}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("", "wrong_value", "missing_delivery"),
                        default="", help="deliberately break one result (self-test)")
    args = parser.parse_args(argv)
    workdir = ROOT / ".perfbench-run" / str(os.getpid())
    try:
        ledger, metrics, lines = asyncio.run(bench(args, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    for line in lines:
        print(line)
    failed_frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"  {'failed_frac':<26} {failed_frac:>14.6f} "
          f"({ledger.failed}/{ledger.attempted})")
    for example in ledger.examples:
        print(f"  failure: {example}")
    correct = ledger.failed == 0 and ledger.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
