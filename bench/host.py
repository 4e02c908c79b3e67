"""Speed of the host, from a fixed pure-Python loop that never touches
tracerange."""

from __future__ import annotations

import gc
import os
from fractions import Fraction
from time import perf_counter

# Rate of a reference host, in units per second; time metrics are reported
# as if measured there. A shared 2-CPU x86-64 VM with Python 3.11 ran 5000
# to 9500.
REFERENCE_RATE = 8000.0


class _Point:
    __slots__ = ("value", "tags")

    def __init__(self, value, tags):
        self.value = value
        self.tags = tags


def _unit() -> None:
    """One unit of the interpreter work the workloads do: exact rational
    arithmetic, small objects, dicts, strings and a sort."""
    acc = Fraction(0)
    points = []
    for i in range(1, 30):
        acc += Fraction(i, i + 1)
        points.append(_Point(acc, {"i": i, "s": str(i)}))
    points.sort(key=lambda p: -p.value)


def rate(seconds: float) -> float:
    """Units of the fixed loop per second, over about ``seconds``.

    The collector is paused so the heap the program under test left behind
    cannot slow the loop; the loop makes no cycles, so nothing accumulates.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        units = 0
        while perf_counter() - started < seconds:
            _unit()
            units += 1
        return units / (perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU, so the
    loop's rate is the rate of the CPU that does the timed work."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (OSError, AttributeError):
        pass  # no affinity control here; timings are scaled all the same
