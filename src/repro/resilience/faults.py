"""Deterministic fault injection at the fetch boundary.

The paper's serving scenarios assume sources that flake: pages vanish,
servers time out, a fetch hangs for seconds and then answers.  To test and
benchmark how the stack survives that, failures must be *reproducible* — a
chaos run that cannot be replayed is a flake generator, not a test.

:class:`FaultPlan` is a seeded, deterministic schedule of injected faults.
Rules match URLs by substring (``"*"`` matches everything) and fire based
on the per-URL fetch count, so a plan replays identically however threads
interleave *across* URLs (the only state is per URL, and it is locked: the
fetch counter and, under a rate rule, the current run of heads):

* ``fail_transient(pattern, times=N)`` — the classic fail-N-then-succeed
  sequence: the first N matching fetches raise
  :class:`~repro.resilience.errors.TransientFetchError`, later ones pass;
* ``fail_permanent(pattern)`` — a 404-style source: every fetch raises
  :class:`~repro.resilience.errors.PermanentFetchError`;
* ``add_latency(pattern, seconds, times=None)`` — latency spikes (the
  fetcher sleeps before delegating);
* ``fail_rate(rate)`` — a seeded coin per (url, fetch number): heads is a
  transient fault.  Deterministic for a given seed, independent of thread
  interleaving.  A fetch draws one coin, whatever the number of rate rules.

:class:`FaultyFetcher` wraps any :class:`~repro.elog.extractor.Fetcher`
with a plan; :class:`repro.web.SimulatedWeb` also consults a plan directly
(``install_faults``) so site-level tests need no wrapper.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..elog.extractor import Fetcher, Page
from .errors import PermanentFetchError, TransientFetchError


class _FaultRule(NamedTuple):
    kind: str  # "transient" | "permanent" | "latency" | "rate"
    pattern: str
    times: Optional[int]  # fire on fetch numbers [after, after+times); None = always
    after: int
    value: float  # latency seconds or transient-rate probability


class FaultDecision(NamedTuple):
    """What the plan wants done about one fetch (resolved, not raised)."""

    delay_s: float
    error: Optional[Exception]


class FaultPlan:
    """A seeded, deterministic schedule of injected fetch faults.

    Rule methods return ``self`` so plans chain::

        plan = (
            FaultPlan(seed=7)
            .fail_transient("shop-3.test", times=2)
            .fail_permanent("gone.test")
            .add_latency("slow.test", 0.05)
        )

    ``decide(url)`` consumes one fetch: it advances the URL's counter and
    resolves every matching rule into a :class:`FaultDecision`.  Injected
    faults are tallied in :attr:`injected` so chaos suites can assert the
    storm actually stormed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rules: List[_FaultRule] = []
        self._counts: Dict[str, int] = {}
        # Per URL: the rate-hit streak the next fetch starts from, and the
        # heads bound it was counted under (see _consecutive_rate_hits).
        self._streaks: Dict[str, Tuple[int, float]] = {}
        # The largest rate of any rate rule (None: no rate rule yet).  The
        # coin does not depend on the rate, so heads under any rate rule
        # means a coin below this bound.
        self._rate_bound: Optional[float] = None
        self._lock = threading.Lock()
        self.injected: Dict[str, int] = {"transient": 0, "permanent": 0, "latency": 0}

    # -- rule construction (chainable) ----------------------------------
    def fail_transient(self, pattern: str = "*", times: int = 1, *, after: int = 0) -> "FaultPlan":
        """Fail matching fetch numbers ``[after, after+times)`` transiently."""
        if times < 1:
            raise ValueError(f"fail_transient times must be >= 1, got {times}")
        self._rules.append(_FaultRule("transient", pattern, times, after, 0.0))
        return self

    def fail_permanent(self, pattern: str) -> "FaultPlan":
        """Every matching fetch raises a permanent (404-style) error."""
        self._rules.append(_FaultRule("permanent", pattern, None, 0, 0.0))
        return self

    def add_latency(
        self, pattern: str, seconds: float, *, times: Optional[int] = None, after: int = 0
    ) -> "FaultPlan":
        """Delay matching fetches by ``seconds`` (``times=None``: always)."""
        if seconds < 0:
            raise ValueError(f"latency must be >= 0, got {seconds}")
        self._rules.append(_FaultRule("latency", pattern, times, after, seconds))
        return self

    def fail_rate(self, rate: float, pattern: str = "*", *, max_failures: int = 10 ** 9) -> "FaultPlan":
        """A seeded transient-fault coin per (url, fetch number).

        ``max_failures`` bounds consecutive hits per URL so a retried fetch
        cannot lose the coin toss forever (set it below the retry policy's
        ``max_attempts`` to make every rate-injected fault recoverable).
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fail_rate must be in [0, 1], got {rate}")
        self._rules.append(_FaultRule("rate", pattern, max_failures, 0, rate))
        self._rate_bound = max(rate, self._rate_bound or 0.0)
        return self

    # -- resolution -------------------------------------------------------
    @staticmethod
    def _matches(pattern: str, url: str) -> bool:
        return pattern == "*" or pattern in url

    def fetch_count(self, url: str) -> int:
        """How many fetches of ``url`` the plan has adjudicated so far."""
        with self._lock:
            return self._counts.get(url, 0)

    def decide(self, url: str) -> FaultDecision:
        """Adjudicate one fetch of ``url`` (advances its counter)."""
        with self._lock:
            number = self._counts.get(url, 0)
            self._counts[url] = number + 1
            delay = 0.0
            error: Optional[Exception] = None
            coin, consecutive_rate_hits = 1.0, 0
            bound = self._rate_bound
            if bound is not None:
                consecutive_rate_hits, counted_under = self._streaks.get(url, (0, None))
                if counted_under != bound:  # first fetch, or a rate rule was added
                    consecutive_rate_hits = self._consecutive_rate_hits(url, number, bound)
                coin = self._rate_coin(url, number)
                self._streaks[url] = (
                    consecutive_rate_hits + 1 if coin < bound else 0,
                    bound,
                )
            for rule in self._rules:
                if not self._matches(rule.pattern, url):
                    continue
                in_window = rule.times is None or rule.after <= number < rule.after + rule.times
                if rule.kind == "latency" and in_window:
                    delay += rule.value
                elif error is not None:
                    continue  # first failing rule wins
                elif rule.kind == "permanent":
                    self.injected["permanent"] += 1
                    error = PermanentFetchError(
                        f"injected permanent failure fetching {url!r}", url=url
                    )
                elif rule.kind == "transient" and in_window:
                    self.injected["transient"] += 1
                    error = TransientFetchError(
                        f"injected transient failure fetching {url!r} "
                        f"(fetch #{number})",
                        url=url,
                    )
                elif rule.kind == "rate" and consecutive_rate_hits < (rule.times or 0):
                    if coin < rule.value:
                        self.injected["transient"] += 1
                        error = TransientFetchError(
                            f"injected transient failure fetching {url!r} "
                            f"(fetch #{number}, seeded rate)",
                            url=url,
                        )
            if delay:
                self.injected["latency"] += 1
            return FaultDecision(delay, error)

    def _rate_coin(self, url: str, number: int) -> float:
        """The seeded coin of fetch ``number`` of ``url``: heads under a rate
        rule is a value below its rate."""
        return random.Random(f"{self.seed}/rate/{url}/{number}").random()

    def _consecutive_rate_hits(self, url: str, number: int, bound: float) -> int:
        """Rate-rule hits on the fetches immediately preceding ``number``.

        Walks backwards from the seed while the coin kept coming up heads
        (below ``bound``).  Bounds the fail-streak so ``max_failures`` can
        guarantee a retried fetch eventually passes.  :meth:`decide` carries
        the streak forward per URL from the coin it draws, and walks only
        for a URL's first fetch under the current rate rules.
        """
        streak = 0
        position = number - 1
        while position >= 0 and self._rate_coin(url, position) < bound:
            streak += 1
            position -= 1
        return streak


class FaultyFetcher(Fetcher):
    """A fetcher wrapper that injects a :class:`FaultPlan`'s faults.

    Implements only :meth:`fetch_page`, so ``fetch`` (the
    :class:`~repro.elog.extractor.Fetcher` default) runs the faulty path
    too.  It can wrap any fetcher in the stack — a
    :class:`~repro.web.SimulatedWeb`, a
    :class:`~repro.web.StaticDocumentFetcher`, or another wrapper.
    ``sleep`` is injectable so latency spikes cost no wall-clock in tests.
    """

    def __init__(
        self,
        base: Fetcher,
        plan: FaultPlan,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base = base
        self.plan = plan
        self._sleep = sleep

    def fetch_page(self, url: str) -> Page:
        decision = self.plan.decide(url)
        if decision.delay_s:
            self._sleep(decision.delay_s)
        if decision.error is not None:
            raise decision.error
        return self.base.fetch_page(url)
