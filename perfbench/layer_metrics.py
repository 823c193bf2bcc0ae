"""Per-layer metrics of a traced run.

Three sources, each named after the ``src/repro`` package it measures:

- spans recorded around public entry points in both processes
  (``spans.py``): self time, duration, counts;
- the public counters and histograms of ``server_metrics()`` and of
  each session's ``ClamClient.metrics``, differenced over each traced
  window and summed;
- ``/proc`` readings of both processes over the *untraced* windows, so
  tracing does not inflate them.

``trace.overhead_pct`` compares the median ``p50_us`` of the traced
windows with that of the untraced windows they alternate with.

A ``*_us`` span metric is the median over the recorded calls of that
entry point (both processes share one CPU, so a span's wall time now
and then includes a time slice of the other process; the median is
immune to that), except ``store.replay_us``, which is replay time per
record.  A ``*_us`` counter metric is the histogram's mean over the
window.  ``*_per_op`` divides a count by the operations the workload
completed.  A layer a workload does not use reports 0.
"""

from __future__ import annotations

from harness import percentile
import spans

#: Per-layer metric name -> unit, in report order.
PER_LAYER = {
    "stubs.client_marshal_us": "us",
    "stubs.server_marshal_us": "us",
    "stubs.dispatch_self_us": "us",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "wire.msgs_per_op": "count",
    "ipc.send_self_us": "us",
    "ipc.frames_per_op": "count",
    "ipc.bytes_per_op": "B",
    "rpc.call_us": "us",
    "rpc.handle_self_us": "us",
    "rpc.batch.flush_us": "us",
    "rpc.batch.calls_per_frame": "count",
    "flow.credit_wait_us": "us",
    "flow.credit_stalls": "count",
    "flow.queue_wait_us": "us",
    "flow.shed_frac": "ratio",
    "tasks.slot_wait_us": "us",
    "core.ruc_us": "us",
    "loader.guard_us": "us",
    "server.send_upcall_us": "us",
    "server.send_upcall_batch_us": "us",
    "server.upcalls_per_batch": "count",
    "server.upcall_rtt_us": "us",
    "client.upcall_wait_us": "us",
    "cluster.post_us": "us",
    "cluster.queue_wait_us": "us",
    "cluster.write_us": "us",
    "cluster.delivered_frac": "ratio",
    "store.append_us": "us",
    "store.replay_us": "us",
    "store.ack_us": "us",
    "store.spilled": "count",
    "store.replayed": "count",
    "store.dup_frac": "ratio",
    "server.cpu_util": "ratio",
    "server.cpu_us_per_op": "us",
    "loadgen.cpu_util": "ratio",
    "loadgen.lag_p99_us": "us",
    "trace.overhead_pct": "%",
    "trace.linked_frac": "ratio",
}


async def scrape(workload) -> dict:
    """Server and per-session client counters at one instant."""
    server = await workload.clients[0].server_metrics()
    clients = {id(client): client.metrics.snapshot() for client in workload.all_clients}
    return {"server": server, "clients": clients}


def add_counters(total: dict, before: dict, after: dict) -> None:
    """Add the change of every counter between two scrapes to ``total``
    (``server`` and ``client`` sums, name -> value)."""
    server = total.setdefault("server", {})
    clients = total.setdefault("client", {})
    for key, value in after["server"].items():
        if isinstance(value, (int, float)):
            server[key] = server.get(key, 0.0) + value - before["server"].get(key, 0.0)
    for cid, snap in after["clients"].items():
        old = before["clients"].get(cid, {})
        for key, value in snap.items():
            if isinstance(value, (int, float)):
                clients[key] = clients.get(key, 0.0) + value - old.get(key, 0.0)


def _mean(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(workload, plain: list[dict], traced: list[dict], log,
                  server_spans: str, counters: dict) -> dict:
    client = spans.aggregate(log.columns())
    server_columns = spans.load(server_spans)
    server = spans.aggregate(server_columns)
    tally = dict(log.columns()["tally"])
    for name, (items, size) in server_columns["tally"].items():
        mine = tally.setdefault(name, [0, 0])
        tally[name] = [mine[0] + items, mine[1] + size]
    ops = max(1, sum(workload.ops(m["result"]) for m in traced))

    def merged(name: str) -> dict:
        a, b = client.get(name, {}), server.get(name, {})
        return {
            "count": a.get("count", 0) + b.get("count", 0),
            "linked": a.get("linked", 0) + b.get("linked", 0),
            "dur_us": a.get("dur_us", []) + b.get("dur_us", []),
            "self_us": a.get("self_us", []) + b.get("self_us", []),
            "parent_dur_us": a.get("parent_dur_us", []) + b.get("parent_dur_us", []),
        }

    def median_self(name: str) -> float:
        samples = merged(name)["self_us"]
        return percentile(samples, 50) if samples else 0.0

    def median_total(name: str, key: str = "dur_us") -> float:
        samples = merged(name)[key]
        return percentile(samples, 50) if samples else 0.0

    def count(name: str) -> float:
        return merged(name)["count"]

    server_counts, client_counts = counters["server"], counters["client"]

    def server_count(key: str) -> float:
        return server_counts.get(key, 0.0)

    def server_hist_mean(name: str) -> float:
        return _mean(server_count(f"{name}.sum"), server_count(f"{name}.count"))

    def client_hist_mean(name: str) -> float:
        return _mean(client_counts.get(f"{name}.sum", 0.0),
                     client_counts.get(f"{name}.count", 0.0))

    def counter_sum(prefix: str) -> float:
        """A labelled counter family, summed over the server and clients."""
        return sum(value for counts in (server_counts, client_counts)
                   for key, value in counts.items()
                   if key == prefix or key.startswith(prefix + "{"))

    def summed(key: str) -> float:
        return sum(m[key] for m in plain)

    def p50s(windows: list[dict]) -> float:
        return percentile([workload.headline(m["result"])["p50_us"] for m in windows], 50)

    shed = server_count("flow.admission.shed")
    admitted = server_count("flow.admission.admitted")
    delivered = server_count("cluster.fanout.delivered")
    lost = sum(server_count(f"cluster.fanout.{k}")
               for k in ("dropped", "coalesced", "evicted_events"))
    replay_us = sum(merged("store.replay")["dur_us"])
    replayed_records = tally.get("store.replay", [0, 0])[0]
    duplicates = sum(m["result"].get("duplicates", 0) for m in traced)
    delivered_durable = sum(m["result"].get("admitted", 0) for m in traced)
    lags = [lag for m in plain for lag in m["result"].get("lags", [])]
    spans_total = sum(e["count"] for e in server.values())
    linked = sum(e["linked"] for e in server.values())
    plain_ops = max(1, sum(workload.ops(m["result"]) for m in plain))

    values = {
        "stubs.client_marshal_us": median_self("stubs.client_marshal"),
        "stubs.server_marshal_us": median_self("stubs.server_marshal"),
        "stubs.dispatch_self_us": median_self("stubs.dispatch"),
        "wire.encode_us": median_total("wire.encode"),
        "wire.decode_us": median_total("wire.decode"),
        "wire.msgs_per_op": (count("wire.encode") + tally.get("wire.patch", [0])[0]) / ops,
        "ipc.send_self_us": median_self("ipc.send"),
        "ipc.frames_per_op": tally.get("ipc.write", [0, 0])[0] / ops,
        "ipc.bytes_per_op": tally.get("ipc.write", [0, 0])[1] / ops,
        "rpc.call_us": median_total("rpc.call"),
        "rpc.handle_self_us": median_self("rpc.handle"),
        # Flushes that sent a frame (every sync call also flushes, mostly
        # finding nothing queued).
        "rpc.batch.flush_us": median_total("rpc.batch.flush", "parent_dur_us"),
        "rpc.batch.calls_per_frame": client_hist_mean("rpc.client.batch_flush_size"),
        "flow.credit_wait_us": median_total("flow.credit_wait"),
        "flow.credit_stalls": counter_sum("flow.credit.stalls"),
        "flow.queue_wait_us": server_hist_mean("flow.queue_wait_us"),
        "flow.shed_frac": _mean(shed, shed + admitted),
        "tasks.slot_wait_us": median_total("tasks.slot_wait"),
        "core.ruc_us": median_total("core.ruc"),
        "loader.guard_us": median_total("loader.guard"),
        "server.send_upcall_us": median_total("server.send_upcall"),
        "server.send_upcall_batch_us": median_total("server.send_upcall_batch"),
        "server.upcalls_per_batch": _mean(tally.get("server.send_upcall_batch", [0])[0],
                                          count("server.send_upcall_batch")),
        "server.upcall_rtt_us": server_hist_mean("upcall.server.rtt_us"),
        "client.upcall_wait_us": client_hist_mean("upcall.stage.dispatch_us"),
        "cluster.post_us": median_total("cluster.post"),
        "cluster.queue_wait_us": server_hist_mean("upcall.stage.queue_us"),
        "cluster.write_us": server_hist_mean("upcall.stage.write_us"),
        "cluster.delivered_frac": _mean(delivered, delivered + lost),
        "store.append_us": median_total("store.append"),
        "store.replay_us": _mean(replay_us, replayed_records),
        "store.ack_us": median_total("store.ack"),
        "store.spilled": server_count("store.spilled_events"),
        "store.replayed": server_count("store.replayed_events"),
        "store.dup_frac": _mean(duplicates, duplicates + delivered_durable),
        "server.cpu_util": summed("server_cpu") / summed("wall"),
        "server.cpu_us_per_op": summed("server_cpu") * 1e6 / plain_ops,
        "loadgen.cpu_util": summed("loadgen_cpu") / summed("wall"),
        "loadgen.lag_p99_us": percentile(lags, 99) * 1e6 if lags else 0.0,
        "trace.overhead_pct": (p50s(traced) / p50s(plain) - 1.0) * 100.0,
        "trace.linked_frac": _mean(linked, spans_total),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}
