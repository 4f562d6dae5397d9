"""How fast the host runs Python right now, from a fixed reference loop.

The benchmark shares its host with other tenants, and the speed at
which the host runs pure Python drifts by up to 1.8x over minutes: a
fixed loop took 2.4 ms at best and 4.4 ms at worst within one minute
on a 2-vCPU Xeon VM. The reference loop is timed next to every unit of
work, and times are reported at the speed of a host on which the loop
takes REFERENCE_S, so the drift cancels and the program's own speed
remains. The loop is benchmark code, so no change to cuckooprf can
move it.

The cancellation is only as good as the loop's likeness to the
workload. Interpreted code slows about in proportion to the loop;
code whose time goes mostly to C (Mersenne Twister seeding) and numpy
slows about a third as much, and there the scaling over-corrects.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# The loop's time on the host above when nothing else ran on it. A
# constant, so numbers stay comparable between commits on one host.
REFERENCE_S = 0.0025
REPEATS = 9


def _loop() -> int:
    table = {}
    for i in range(20000):
        table[i] = (i * 2654435761) & 0xFFFF
    return sum(table.values())


def reference_s() -> float:
    """Median time of the reference loop, with the collector off so that
    only the host's speed, not the program's heap, shows in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            _loop()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def at_reference_speed(seconds: float, measured_reference_s: float) -> float:
    """seconds as they would read on a host where the loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / measured_reference_s
