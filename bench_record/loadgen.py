"""Open-loop request generation and the percentile rules of the benchmark.

An open loop sends request ``i`` at ``start + i / rate`` whatever the
service is doing, from one asyncio task, so a stall in the service delays
every later reply and shows in their latencies.  Latency is timed from each
request's *due* time; how late the generator itself ran (send minus due) is
recorded so a slow generator cannot hide as a fast service.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, List, Optional, Sequence, Tuple

#: Percentiles considered for a timing's tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float]]:
    """``(pct, value)`` of the highest percentile with >= 10 samples beyond.

    ``(None, None)`` when there are fewer than 20 samples, where not even
    the median has ten samples above it.
    """
    for pct in TAIL_PERCENTILES:
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return None, None


def summary(values: Sequence[float], unit: str) -> dict:
    """Median, tail and sample count of one timing, in ``unit``."""
    pct, tail_value = tail(values)
    return {"p50": statistics.median(values) if values else None,
            "tail_pct": pct, "tail": tail_value, "n": len(values),
            "unit": unit}


@dataclass
class Sample:
    """One open-loop request: its schedule, outcome and reply."""

    index: int
    due: float
    sent: float
    done: float = 0.0
    reply: Any = None
    error: Optional[BaseException] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


async def open_loop(call: Callable[[int], Awaitable[Any]], rate: float,
                    count: int, first_index: int = 0) -> List[Sample]:
    """Send ``count`` requests at ``rate`` per second; wait for every reply.

    ``call(i)`` issues request ``i``; an exception it raises is recorded on
    the sample as a failed request, never propagated.
    """
    loop = asyncio.get_running_loop()
    samples: List[Sample] = []
    tasks = []

    async def one(sample: Sample) -> None:
        try:
            sample.reply = await call(sample.index)
        except Exception as exc:  # counted as a failed request
            sample.error = exc
        sample.done = time.perf_counter()

    start = time.perf_counter() + 0.005
    for offset in range(count):
        due = start + offset / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sample = Sample(first_index + offset, due, time.perf_counter())
        samples.append(sample)
        tasks.append(loop.create_task(one(sample)))
    await asyncio.gather(*tasks)
    return samples


def latency_summary(samples: Sequence[Sample]) -> dict:
    """Latency (from due time) and generator lateness of successful samples."""
    ok = [s for s in samples if s.error is None]
    return {"latency": summary([s.latency_ms for s in ok], "ms"),
            "late": summary([s.late_ms for s in samples], "ms"),
            "failed": len(samples) - len(ok)}
