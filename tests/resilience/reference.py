"""Reference fault plan: every decision recomputed from the seed alone.

:class:`repro.resilience.FaultPlan` draws one seeded coin per fetch and
carries each URL's rate-hit streak forward from it.  :class:`StatelessFaultPlan`
keeps the plan it replaced, whose only state is the per-URL fetch counter:
each decision re-derives the streak by walking back over the seeded coins
and draws the coin once more per matching rate rule.  Rule construction is
shared; ``decide`` and its two helpers are the old code, unchanged.
``tests/resilience/test_fault_plan_differential.py`` compares the two.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.resilience import FaultPlan, PermanentFetchError, TransientFetchError
from repro.resilience.faults import FaultDecision


class StatelessFaultPlan(FaultPlan):
    """A :class:`FaultPlan` that recomputes every rate streak from the seed."""

    def decide(self, url: str) -> FaultDecision:
        """Adjudicate one fetch of ``url`` (advances its counter)."""
        with self._lock:
            number = self._counts.get(url, 0)
            self._counts[url] = number + 1
            delay = 0.0
            error: Optional[Exception] = None
            consecutive_rate_hits = self._consecutive_rate_hits(url, number)
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
                    if self._rate_coin(url, number, rule.value):
                        self.injected["transient"] += 1
                        error = TransientFetchError(
                            f"injected transient failure fetching {url!r} "
                            f"(fetch #{number}, seeded rate)",
                            url=url,
                        )
            if delay:
                self.injected["latency"] += 1
            return FaultDecision(delay, error)

    def _rate_coin(self, url: str, number: int, rate: float) -> bool:  # type: ignore[override]
        return random.Random(f"{self.seed}/rate/{url}/{number}").random() < rate

    def _consecutive_rate_hits(self, url: str, number: int) -> int:  # type: ignore[override]
        """Rate-rule hits on the fetches immediately preceding ``number``.

        Recomputed from the seed (no extra state): walks backwards while
        the coin kept coming up heads.  Bounds the fail-streak so
        ``max_failures`` can guarantee a retried fetch eventually passes.
        """
        rates = [rule.value for rule in self._rules if rule.kind == "rate"]
        if not rates:
            return 0
        streak = 0
        position = number - 1
        while position >= 0 and any(
            self._rate_coin(url, position, rate) for rate in rates
        ):
            streak += 1
            position -= 1
        return streak
