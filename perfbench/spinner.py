"""An idle-priority busy loop pinned to one CPU, and a CPU speed gauge.

    python3 perfbench/spinner.py CPU

Run by ``harness.IdleSpinner``; not meant to be started by hand.  It
repeats one fixed unit of interpreter work — an object, a struct pack,
a bytes slice and concatenation, a dict store and lookup — at
``SCHED_IDLE`` priority, so it runs only when nothing else on the CPU
wants to.  For each line on its stdin it answers with the units done so
far and its own CPU time in ns; the two, read at both ends of an
interval, give the speed of the CPU in units per CPU-second.  It exits
when its stdin closes or its parent is gone.
"""

import os
import select
import struct
import sys

#: Units between checks of stdin and of the parent.
BATCH = 256

_pack = struct.Struct(">IQ").pack
_table: dict[int, bytes] = {}


class _Box:
    __slots__ = ("v",)

    def __init__(self, v: int) -> None:
        self.v = v


def unit(i: int) -> int:
    box = _Box(i)
    key = i & 255
    data = _pack(key, box.v)
    _table[key] = data[2:] + data
    return len(_table.get(key ^ 1, b""))


def main() -> None:
    parent = os.getppid()
    os.sched_setaffinity(0, {int(sys.argv[1])})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    sys.stdout.write("spinning\n")
    sys.stdout.flush()
    units = 0
    while os.getppid() == parent:
        for i in range(BATCH):
            unit(i)
        units += BATCH
        if select.select([sys.stdin], [], [], 0)[0]:
            if not sys.stdin.readline():
                return
            with open("/proc/self/schedstat") as fh:
                cpu_ns = fh.read().split()[0]
            sys.stdout.write(f"{units} {cpu_ns}\n")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
