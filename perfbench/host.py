"""The benchmark's server process.

Builds a :class:`repro.server.ClamServer` with its defaults, embeds the
fan-out :class:`~layers.Hub` (paper §4.2 embedding), attaches a
:class:`repro.store.Spool`, listens on a UNIX-domain socket and prints
``READY`` on stdout.  It serves until its stdin closes, then shuts
down; with ``--spans`` it first writes the spans recorded while the
load generator had tracing switched on.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

from repro.server import ClamServer
from repro.store import Spool

from layers import Hub
from spans import SERVER_POINTS, SpanLog


async def serve(args: argparse.Namespace) -> None:
    server = ClamServer()
    spool = Spool(args.spool)
    server.attach_store(spool)
    hub = Hub(spool, metrics=server.metrics, drop_seq=args.drop_seq)
    log = SpanLog(SERVER_POINTS) if args.spans else None
    if log is not None:
        hub.trace_switch = log.switch
    server.publish("bench.hub", hub)
    await server.start(f"unix://{args.socket}")
    print("READY", flush=True)
    loop = asyncio.get_running_loop()
    # Serve until the load generator closes our stdin.
    await loop.run_in_executor(None, sys.stdin.buffer.read)
    if log is not None:
        log.switch(False)
        log.dump(args.spans)
    await hub.close()
    await server.shutdown()
    spool.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--spool", required=True)
    parser.add_argument("--spans", default="")
    parser.add_argument("--drop-seq", type=int, default=-1)
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    asyncio.run(serve(args))


if __name__ == "__main__":
    main()
