"""A fixed reference loop that measures how fast the machine runs Python now.

On a shared virtual machine the speed a process gets drifts by a quarter
or more over tens of seconds, and the median of a 30 s run follows it (see
README.md).  The benchmark times this loop between commands and scales
every reported time by ``NOMINAL_S / (time of the loop)``: times are given
in seconds at the nominal speed, at which the loop takes ``NOMINAL_S``.
The loop does not touch proxkit, so a change to the program moves the
scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import time

STEPS = 6000
NOMINAL_S = 0.005  # about the loop's time on an unloaded 2-vCPU VM


def reference_loop() -> int:
    """Calls, tuples, dict updates and a sort, as proxkit's code does."""
    def mix(a, b):
        return (a * 31 + b) % 1009

    counts: dict = {}
    for i in range(STEPS):
        key = (i % 97, mix(i, i >> 3))
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts.items()))


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
