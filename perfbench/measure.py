"""Small measurement helpers: percentiles, the tail rule, open-loop pacing."""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple

#: the tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def band(values: Sequence[float], pct: float, half_width: float) -> float:
    """Nearest-rank percentile ``pct`` (0..100), smoothed: the mean of the
    sorted values whose ranks lie within ``half_width`` percent of the
    sample on either side of it (narrowed to stay symmetric at the top
    end).  A plain order statistic jumps whenever
    two neighbouring values swap across a gap in the distribution; the band
    mean moves by a fraction of that."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(pct / 100.0 * n))
    k = min(int(half_width / 100.0 * n), n - rank, rank - 1)
    return statistics.fmean(ordered[rank - 1 - k:rank + k])


def median(values: Sequence[float]) -> float:
    """The median as :func:`band` of ranks 40..60%."""
    return band(values, 50, 10)


def tail(values: Sequence[float]) -> Tuple[float, int, int]:
    """The highest whole nearest-rank percentile with at least
    :data:`TAIL_BEYOND` samples above its rank, as :func:`band` of the
    ranks within 10% of it (at most up to the largest value).

    Returns ``(value, percentile, sample count)``.  A tail is never taken
    below the median: with too few samples for any percentile above it to
    qualify (n < 21), the median stands in and the percentile reads 50.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    best = 50
    for pct in range(99, 50, -1):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            best = pct
            break
    if best == 50:
        return median(values), best, n
    return band(values, best, 10), best, n


def poisson_schedule(rate: float, start: float, end: float, rng: random.Random) -> List[float]:
    """Due times of a Poisson stream of ``rate`` per second in [start, end)."""
    due, t = [], start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return due
        due.append(t)


def run_open_loop(
    due_times: Sequence[float],
    send: Callable[[int], object],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    give_up: Optional[Callable[[int, float], bool]] = None,
) -> List[Tuple[float, float, float, object]]:
    """Issue ``send(i)`` at each due time on one connection.

    A request that falls behind is sent as soon as the previous one
    completes; its latency still counts from when it was *due*, so a stall
    is charged to every request it delays.  Returns one
    ``(due, sent, done, reply)`` tuple per request; ``sent - due`` is how
    late the generator ran.  ``give_up(index, lag)`` ends the stream early
    (the remaining requests are not sent).
    """
    out = []
    for index, due in enumerate(due_times):
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        if give_up is not None and give_up(index, sent - due):
            break
        reply = send(index)
        out.append((due, sent, clock(), reply))
    return out
