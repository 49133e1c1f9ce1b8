"""How fast the host is running right now, against a fixed reference speed.

The benchmark's hosts share their CPUs with other work, and their speed
swings by a third or more over seconds to hours: the same requests in one
process ran from 4.6k to 8.2k per second in consecutive one-second windows.
A fixed unit of pure-Python work that uses none of the program's code (dict
updates on tuple keys, string building, a sort) is timed in short bursts
between the timed requests.  Its rate swings with the requests' rate, so the
ratio of the two held within a few percent while each moved by 75%.

Every timing the benchmark reports is scaled by the *slowdown* of the bursts
next to it: how many times longer they took than on a reference host that
runs :data:`REFERENCE_RATE` units a second.  A time of 2 ms at slowdown 1.25
reads 1.6 ms; a rate of 800/s reads 1000/s.
"""

from __future__ import annotations

import time
from typing import Sequence

# Units a second on the reference host (about the 2-CPU virtual machine the
# benchmark was built on, in its faster spells).
REFERENCE_RATE = 150.0
# Seconds of timed requests between two bursts, and units per burst.
SLICE_SECONDS = 0.1
BURST_UNITS = 2


def unit() -> int:
    """One unit of calibration work (a few milliseconds)."""
    total = 0
    for outer in range(200):
        table: dict = {}
        for inner in range(40):
            key = (inner * 7919 + outer) % 97
            table[(key, str(key))] = table.get((key, str(key)), 0) + inner
        ordered = sorted(table.items())
        total += len("".join(str(label) for (label, _), _count in ordered[:10]))
    return total


def burst(units: int = BURST_UNITS) -> float:
    """Seconds the host took for ``units`` units."""
    started = time.perf_counter()
    for _ in range(units):
        unit()
    return time.perf_counter() - started


def slowdown(seconds: Sequence[float], units: int = BURST_UNITS) -> float:
    """How many times slower than the reference host ``seconds`` of bursts ran."""
    return sum(seconds) * REFERENCE_RATE / (units * len(seconds))
