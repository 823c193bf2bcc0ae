"""The benchmark's own tests: a short run of every workload, plus
deliberately broken runs that the correctness checks must catch.

    python3 perfbench/smoke.py

For each workload, a short untraced run must pass its checks and print
every end-to-end metric of ``BENCHMARK.json`` with its unit, and a
short traced run every per-layer metric, with the metrics of the layers
that workload loads (see README.md) above zero.  Then a wrong value and a
missing delivery are injected; each such run must exit non-zero and
count the failure.  Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Long enough for durable_resume to take at least one outage.
SECONDS = "4"

#: Per-workload metric names each workload's report must print.
REPORTED = {
    "rpc_calls": ("calls_per_s", "call_p50_us", "call_p99_us", "ruc_p50_us", "ruc_p99_us"),
    "write_read": ("calls_per_s", "call_p50_us", "call_p99_us", "posts_per_s"),
    "fanout": ("deliver_p50_us", "deliver_p99_us", "burst_deliveries_per_s"),
    "durable_resume": ("deliver_p50_us", "catchup_ms"),
}


#: Per-layer metrics each workload must move off zero: the layers it
#: loads, as README.md's per-layer table lists them.
LOADED = {
    "rpc_calls": (
        "stubs.client_marshal_us", "stubs.server_marshal_us", "stubs.dispatch_self_us",
        "wire.encode_us", "wire.decode_us", "wire.msgs_per_op",
        "ipc.send_self_us", "ipc.frames_per_op", "ipc.bytes_per_op",
        "rpc.call_us", "rpc.handle_self_us", "tasks.slot_wait_us", "core.ruc_us",
        "loader.guard_us", "server.send_upcall_us", "server.upcall_rtt_us",
        "client.upcall_wait_us", "trace.linked_frac",
    ),
    "write_read": (
        "stubs.client_marshal_us", "stubs.server_marshal_us", "stubs.dispatch_self_us",
        "rpc.call_us", "rpc.handle_self_us", "rpc.batch.flush_us",
        "rpc.batch.calls_per_frame", "flow.credit_wait_us", "flow.queue_wait_us",
    ),
    "fanout": (
        "ipc.send_self_us", "ipc.frames_per_op", "ipc.bytes_per_op",
        "server.send_upcall_batch_us", "server.upcalls_per_batch",
        "server.upcall_rtt_us", "client.upcall_wait_us", "cluster.post_us", "cluster.queue_wait_us",
        "cluster.write_us", "cluster.delivered_frac", "loadgen.lag_p99_us",
    ),
    "durable_resume": (
        "store.append_us", "store.replay_us", "store.ack_us", "store.spilled",
        "store.replayed", "flow.credit_wait_us", "flow.queue_wait_us",
        "loadgen.lag_p99_us",
    ),
}
#: Process figures, above zero on every workload.
EVERYWHERE = ("server.cpu_util", "server.cpu_us_per_op", "loadgen.cpu_util")


def run(workload: str, *extra: str) -> tuple[int, str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, *extra],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, proc.stdout + proc.stderr, result


def expect(ok: bool, what: str, output: str = "") -> None:
    if not ok:
        print(f"FAIL: {what}\n{output[-3000:]}")
        sys.exit(1)
    print(f"ok: {what}")


def main() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload, names in REPORTED.items():
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, output, result = run(workload, "--trace", trace)
            expect(code == 0 and result.get("correct") is True
                   and result.get("failed") == 0 and result.get("attempted", 0) > 0,
                   f"{workload} --trace {trace} passes its checks", output)
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in spec[key]},
                   f"{workload} --trace {trace} reports exactly the {key} metrics", output)
            for metric in spec[key]:
                entry = metrics[metric["name"]]
                expect(entry["unit"] == metric["unit"]
                       and isinstance(entry["value"], float)
                       and entry["value"] == entry["value"],  # not NaN
                       f"{workload} {metric['name']} is a number in {metric['unit']}",
                       output)
            if trace == "1":
                for name in LOADED[workload] + EVERYWHERE:
                    expect(metrics[name]["value"] > 0,
                           f"{workload} moves {name} off zero", output)
            if trace == "0":
                for name in names + ("setup_s", "server_rss_mb", "failed_frac"):
                    expect(f"  {name} " in output,
                           f"{workload} report prints {name}", output)
    for workload, fault in (("rpc_calls", "wrong_value"), ("write_read", "wrong_value"),
                            ("fanout", "missing_delivery"),
                            ("durable_resume", "missing_delivery")):
        code, output, result = run(workload, "--trace", "0", "--inject", fault)
        expect(code != 0 and result.get("correct") is False and result.get("failed", 0) > 0,
               f"{workload} counts an injected {fault} as failed", output)


if __name__ == "__main__":
    main()
