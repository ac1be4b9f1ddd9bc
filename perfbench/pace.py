"""Host-speed probe: how fast this process runs right now.

On a shared virtual machine the speed a process gets alternates between
levels up to 1.7x apart, in phases from seconds to minutes long, and every
timing inherits it (see the README's "Run length and the host").  The probe
is fixed pure-Python work that uses none of the library's code, so a change
to the library never changes its cost: an arithmetic loop, then a dict of
1000 strings that is filled and sorted, all inside the CPU's caches.  Of
the probes tried, this pair tracked both ``tree_query`` and
``monitor_server`` best; a probe that allocated many small dicts tracked
``monitor_server`` well but read ``tree_query``'s heap as much as the
host's speed.

The harness runs the probe every ``INTERVAL_S`` during a measured window and
before every build.  Dividing a timing by the probe's cost around it, and
multiplying by ``REFERENCE_S``, gives the seconds it would have taken on a
host where the probe costs ``REFERENCE_S``: the reference host.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Sequence, Tuple

#: What one probe costs on the reference host (roughly its cost on a shared
#: 2-vCPU virtual machine).  Normalised timings are seconds on that host.
REFERENCE_S = 0.0010
#: Seconds between probes during a measured window.
INTERVAL_S = 0.25
#: A timing's host speed is the median of the probes this many seconds
#: either side of it.  Phases last seconds or more.
RADIUS_S = 2.0


_KEYS = [f"key{number}" for number in range(2_000)]


def _work() -> int:
    total = 0
    for number in range(10_000):  # the interpreter's own loop and arithmetic
        total += number * number % 7
    table = {}
    for number in range(0, 2_000, 2):  # hashing, comparing, sorting strings
        table[_KEYS[number]] = _KEYS[(number * 7) % 2_000]
    return total + len(sorted(table))


def probe() -> float:
    """Seconds one run of the reference work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Pace:
    """Probes taken over a stretch of time, and timings normalised by them."""

    def __init__(self) -> None:
        self.probes: List[Tuple[float, float]] = []  # (when, seconds)

    def take(self) -> None:
        """Run one probe now."""
        self.probes.append((time.perf_counter(), probe()))

    def tick(self, now: float) -> None:
        """Run a probe if ``INTERVAL_S`` has passed since the last one."""
        if not self.probes or now - self.probes[-1][0] >= INTERVAL_S:
            self.take()

    def speed_at(self, when: float) -> float:
        """Median probe cost within ``RADIUS_S`` of ``when`` (the nearest
        probe when none is that close)."""
        times = [at for at, _ in self.probes]
        low = bisect.bisect_left(times, when - RADIUS_S)
        high = bisect.bisect_right(times, when + RADIUS_S)
        if low == high:
            nearest = min(range(len(times)), key=lambda index: abs(times[index] - when))
            return self.probes[nearest][1]
        return statistics.median(cost for _, cost in self.probes[low:high])

    def normalise(self, starts: Sequence[float], seconds: Sequence[float]) -> List[float]:
        """``seconds[i]``, begun at ``starts[i]``, on the reference host."""
        if not self.probes:
            raise ValueError("no probes taken")
        return [value * REFERENCE_S / self.speed_at(when)
                for when, value in zip(starts, seconds)]

    def overall(self) -> float:
        """Median probe cost over every probe taken."""
        return statistics.median(cost for _, cost in self.probes)


for _ in range(5):  # warm the probe's code path before it is read
    _work()
