"""The closed request loop shared by every workload.

One client issues requests back to back: the next request starts only when
the previous one returned, so a slower program receives less load.  Each
workload object provides

* ``setup()`` — build the system under test from the generated inputs
  (timed, repeated; the last build is the one measured);
* ``between(index)`` — untimed work between requests (the monitoring
  workload's page rewrites);
* ``request(index)`` — one timed request; raising counts as a failure;
* ``check(index, output)`` — cheap output checks, run outside the request's
  timing, appending messages to ``problems``;
* ``counters()`` — cumulative counters read from the library's public info
  surfaces; windows report their deltas;
* ``final_checks()`` — costly checks after measuring, also appending to
  ``problems``; ``summary`` describes the generated inputs.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.pace import Pace
from perfbench.tracing import Tracer


def percentile(values: Sequence[float], q: float) -> Tuple[float, int, int]:
    """Nearest-rank ``q``-th percentile: ``(value, samples, samples beyond)``.

    ``samples beyond`` counts the values ranked strictly above the
    percentile's rank — the tail the estimate rests on.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered), len(ordered) - rank


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Window:
    """What one measured window of requests produced."""

    latencies: List[float] = field(default_factory=list)
    #: ``perf_counter`` at the start of each request, for ``pace``.
    starts: List[float] = field(default_factory=list)
    pace: Pace = field(default_factory=Pace)
    failed: int = 0
    wall_s: float = 0.0
    deltas: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def throughput_rps(self) -> float:
        return self.attempted / self.wall_s if self.wall_s > 0 else 0.0

    def reference_latencies(self) -> List[float]:
        """Each request's latency on the reference host (see ``pace``)."""
        return self.pace.normalise(self.starts, self.latencies)

    def fresh_share(self) -> float:
        """Source outputs served fresh rather than from a stale copy.

        Workloads without a resilience policy never serve stale, so their
        share is 1.
        """
        activations = self.deltas.get("source.activations", 0.0)
        if activations <= 0:
            return 1.0
        return 1.0 - self.deltas.get("resilience.stale_served", 0.0) / activations


def run_window(
    workload,
    seconds: float,
    first_index: int,
    tracer: Optional[Tracer] = None,
    count: Optional[int] = None,
) -> Window:
    """Issue requests until ``seconds`` of wall time have passed.

    With ``count``, issue exactly that many requests instead, however long
    they take (the traced run replays the untraced window's requests).
    Between requests, ``window.pace`` probes the host's speed every
    ``pace.INTERVAL_S``.
    """
    clock = time.perf_counter
    window = Window()
    before = workload.counters()
    index = first_index
    begin = clock()
    deadline = begin + seconds
    while index - first_index < count if count is not None else clock() < deadline:
        window.pace.tick(clock())
        workload.between(index)
        if tracer is not None:
            tracer.request_id = index
        start = clock()
        window.starts.append(start)
        try:
            output = workload.request(index)
        except Exception as error:  # a failed request is data, not a crash
            window.latencies.append(clock() - start)
            window.failed += 1
            workload.problems.append(f"request {index} failed: {error!r}")
        else:
            window.latencies.append(clock() - start)
            workload.check(index, output)
        index += 1
    window.wall_s = clock() - begin
    window.pace.take()  # so the last requests have probes on both sides
    after = workload.counters()
    window.deltas = {key: after[key] - before.get(key, 0) for key in after}
    return window


def run_rounds(
    workload,
    round_seconds: float,
    rounds: int,
    warmup: int,
    tracer: Optional[Tracer] = None,
    patches: Sequence = (),
) -> List[Window]:
    """Measure the same requests ``rounds`` times.

    The first round runs for ``round_seconds`` on the system already built;
    every later round rebuilds the system and replays exactly the first
    round's requests, so rounds differ only in when they ran.  Each round
    starts with ``warmup`` unmeasured requests.  With a ``tracer``, the
    last round runs with ``patches`` installed and restores them after.
    """
    windows: List[Window] = []
    for number in range(rounds):
        if number:
            workload.setup()
        run_window(workload, 0.0, 0, count=warmup)
        count = windows[0].attempted if windows else None
        if tracer is not None and number == rounds - 1:
            with tracer:
                tracer.install(patches)
                windows.append(run_window(workload, round_seconds, warmup, tracer, count))
        else:
            windows.append(run_window(workload, round_seconds, warmup, None, count))
    return windows


def ok_share(windows: Sequence[Window]) -> float:
    """Requests that neither raised nor returned an error result, as a share
    of all requests attempted in ``windows``."""
    attempted = sum(window.attempted for window in windows)
    failed = sum(window.failed for window in windows)
    return 1.0 - failed / attempted if attempted else 0.0


def timed_setups(workload, repeats: int, min_seconds: float) -> Tuple[List[float], List[float]]:
    """Build the system at least ``repeats`` times and until ``min_seconds``
    have gone into building; the last build stays in place.

    Returns each build's seconds, and the same on the reference host: every
    build is normalised by the probes taken just before the builds around it.
    """
    pace = Pace()
    starts: List[float] = []
    times: List[float] = []
    while len(times) < repeats or sum(times) < min_seconds:
        pace.take()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
        starts.append(start)
    return times, pace.normalise(starts, times)
