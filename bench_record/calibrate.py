"""Host-speed calibration for the timings the benchmark gates.

On a shared host the same Python code runs up to ~30 % faster or slower
from one few-second stretch to the next.  A CPU-bound operation is
therefore timed between two bursts of a fixed pure-Python loop that shares
nothing with the program under test, and its gated time is scaled to the
speed that loop has on the reference host:

    gated = measured * REFERENCE_BURST_S / burst

where ``burst`` is the mean of the bursts before and after.  The raw wall
times stay in the report line.  Latencies that are mostly waiting (open-loop
lookups behind the micro-batch window) are not scaled.
"""

from __future__ import annotations

import statistics
import time
from typing import Awaitable, Callable, List, Tuple, TypeVar

import loadgen

T = TypeVar("T")

#: The burst's median time on a 2-vCPU 2.1 GHz Xeon VM with Python 3.11.
REFERENCE_BURST_S = 0.005

_BURST_REPEATS = 3


def _loop() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(8000):
        table[(i * 7919) % 4099, i & 63] = i
    keys = sorted(table)
    sum(table[key] for key in keys[::3])
    return time.perf_counter() - start


def burst() -> float:
    """Median time of a few runs of the calibration loop, in seconds."""
    return statistics.median(_loop() for _ in range(_BURST_REPEATS))


class Timings:
    """Raw wall times of one kind of operation and their scaled times."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.scaled: List[float] = []

    def add(self, seconds: float, before: float, after: float) -> None:
        self.raw.append(seconds)
        self.scaled.append(seconds * REFERENCE_BURST_S / ((before + after) / 2))

    def time(self, func: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``func`` between two bursts; returns result, start and end."""
        before = burst()
        start = time.perf_counter()
        result = func()
        end = time.perf_counter()
        self.add(end - start, before, burst())
        return result, start, end

    async def time_async(self, func: Callable[[], Awaitable[T]]
                         ) -> Tuple[T, float, float]:
        """Await ``func()`` between two bursts; returns result, start, end."""
        before = burst()
        start = time.perf_counter()
        result = await func()
        end = time.perf_counter()
        self.add(end - start, before, burst())
        return result, start, end

    def summary(self) -> dict:
        """Raw median, tail and count, plus the median scaled time."""
        out = loadgen.summary(self.raw, "s")
        out["scaled_p50"] = statistics.median(self.scaled) if self.scaled else None
        return out
