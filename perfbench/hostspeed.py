"""A fixed reference computation that tracks the host's current speed.

On a shared host the speed a process gets drifts by up to ~1.8x over
seconds to minutes (other tenants contend for the same cores), which
no number of repetitions inside a 30 s run averages out.  Timed right
before and after a phase, this fixed pure-Python kernel says how fast
the host ran then, and :func:`scale` gives the factor that maps the
phase's wall time to the time it would have taken on a host where the
kernel takes :data:`NOMINAL_S`.  The kernel never touches the program,
so a change to the program moves the scaled time exactly as it moves
the wall time.
"""

from __future__ import annotations

import statistics
import struct
import time


class _Item:
    __slots__ = ("name", "weight")

    def __init__(self, name: str, weight: int):
        self.name = name
        self.weight = weight


_TABLE = {i: _Item(f"host{i:05d}.example", i) for i in range(4096)}

#: Median kernel time on the host the benchmark was tuned on (a 2-vCPU
#: Xeon VM, Python 3.11).  Only a unit: scaled times are "seconds on a
#: host where the kernel takes this long".
NOMINAL_S = 0.00085


def kernel() -> int:
    """Dict lookups, slot reads, struct packing, sorting and joining."""
    acc = 0
    pack = struct.pack
    for i in range(1500):
        item = _TABLE[(i * 7919) & 4095]
        weight = (item.weight + i) & 0xFFFF
        acc += weight + len(pack("!HHI", i & 0xFFFF, weight,
                                 acc & 0xFFFFFFFF))
    names = sorted(_TABLE[(i * 31) & 4095].name for i in range(300))
    return acc + len("".join(names))


def reference(samples: int = 40) -> float:
    """Median wall time of ``samples`` kernel runs, seconds."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """The factor for a phase bracketed by references ``before``/``after``."""
    return NOMINAL_S / ((before + after) / 2.0)
