"""Resilience tuning: one frozen policy object for the whole serving stack.

Mirrors :class:`repro.datalog.options.EngineOptions`: a frozen, hashable
dataclass accepted uniformly by :class:`repro.api.Session`,
:meth:`repro.api.Pipeline.builder`, and the server components, so fault
handling is configured declaratively in one place instead of per-call
kwargs scattered across layers.

Three pieces live here:

* :class:`RetryPolicy` / :class:`ResiliencePolicy` — the knobs (attempts,
  backoff, deadline, breaker thresholds, batch ``on_error`` default, stale
  serving);
* :class:`ResilienceStats` — the thread-safe counters every resilient
  surface reports into, snapshotted as :class:`ResilienceInfo` (the
  :class:`~repro.datalog.cache.CacheInfo` of the failure domain);
* :class:`ErrorResult` — the per-slot failure record the batch paths return
  under ``on_error="collect"`` instead of aborting the other N-1 documents.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, FrozenSet, NamedTuple, Optional, Tuple

#: The batch error policies (``Session.query_many`` / ``extract_many``,
#: ``TransformationServer.run_all``): ``"raise"`` aborts the batch on the
#: first failure (the pre-resilience behaviour), ``"skip"`` drops failed
#: slots from the results, ``"collect"`` yields an :class:`ErrorResult` in
#: the failed slot so result order still matches the input order.
ON_ERROR_POLICIES = ("raise", "skip", "collect")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry behaviour at one fetch boundary.

    Attributes
    ----------
    max_attempts:
        Total tries per call, first attempt included (``1`` disables
        retrying).
    backoff_base_s:
        Sleep before the second attempt; attempt ``k`` waits
        ``backoff_base_s * backoff_multiplier**(k-2)``, capped at
        ``backoff_max_s``.  ``0`` retries immediately (the test suites'
        setting — no wall-clock is burned on injected faults).
    backoff_multiplier:
        Exponential growth factor of the backoff.
    backoff_max_s:
        Upper bound of any single backoff sleep.
    jitter:
        Fraction of each backoff randomised away (``0.1`` → sleep between
        90% and 100% of nominal), drawn from a generator seeded per
        (policy seed, url, attempt) — deterministic, like everything in
        :mod:`repro.resilience.faults`.
    attempt_timeout_s:
        Budget for a single attempt.  Enforcement is cooperative — the
        attempt is timed, and one that comes back late is treated as a
        transient failure (synchronous fetchers cannot be cancelled
        mid-call without threads; the latency-spike faults this guards
        against do return eventually).
    deadline_s:
        Total wall-clock budget across all attempts and backoffs; when it
        runs out the call fails with
        :class:`~repro.resilience.errors.DeadlineExceeded`.
    seed:
        Seed of the jitter stream.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.1
    attempt_timeout_s: Optional[float] = None
    deadline_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"RetryPolicy.max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("RetryPolicy backoff values must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"RetryPolicy.backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"RetryPolicy.jitter must be in [0, 1], got {self.jitter}")
        for name in ("attempt_timeout_s", "deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"RetryPolicy.{name} must be positive, got {value}")

    def backoff_for(self, attempt: int) -> float:
        """Nominal backoff before attempt number ``attempt`` (2-based)."""
        if attempt <= 1 or self.backoff_base_s == 0:
            return 0.0
        nominal = self.backoff_base_s * self.backoff_multiplier ** (attempt - 2)
        return min(nominal, self.backoff_max_s)

    def derive(self, **changes: Any) -> "RetryPolicy":
        return replace(self, **changes)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Declarative fault handling for one serving surface.

    Attributes
    ----------
    retry:
        The :class:`RetryPolicy` applied at the fetch boundary.
    breaker_threshold:
        Consecutive failures per host before the circuit opens (``0``
        disables the breaker).
    breaker_cooldown_s:
        Seconds an open circuit refuses calls before letting one probe
        through (half-open).
    on_error:
        Default batch error policy (see :data:`ON_ERROR_POLICIES`) for
        surfaces that were not given an explicit ``on_error=``.
    serve_stale:
        Whether components re-evaluating a monitored source may serve
        their last-good output (marked ``stale="true"``) when the source
        is down, instead of failing the pipe.
    """

    retry: RetryPolicy = RetryPolicy()
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 30.0
    on_error: str = "raise"
    serve_stale: bool = True

    def __post_init__(self) -> None:
        if self.breaker_threshold < 0:
            raise ValueError(
                f"ResiliencePolicy.breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_s < 0:
            raise ValueError(
                f"ResiliencePolicy.breaker_cooldown_s must be >= 0, got {self.breaker_cooldown_s}"
            )
        if self.on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"ResiliencePolicy.on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {self.on_error!r}"
            )

    def derive(self, **changes: Any) -> "ResiliencePolicy":
        return replace(self, **changes)


#: The stock policy surfaces resolve to when told "be resilient" without
#: further tuning.
DEFAULT_RESILIENCE = ResiliencePolicy()


class ResilienceInfo(NamedTuple):
    """A snapshot of one surface's failure accounting (cf. ``CacheInfo``)."""

    attempts: int
    retries: int
    failures: int
    breaker_trips: int
    breaker_rejections: int
    stale_served: int
    errors_isolated: int


_STAT_FIELDS = ResilienceInfo._fields


class ResilienceStats:
    """Thread-safe failure counters shared by resilient surfaces.

    One instance can back several :class:`~repro.resilience.retry.
    ResilientFetcher` wrappers (a session's whole batch layer reports into
    one), or one component can own a private instance — the aggregation
    choice belongs to the owner, the arithmetic lives here.
    """

    __slots__ = ("_lock",) + _STAT_FIELDS

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for field in _STAT_FIELDS:
            setattr(self, field, 0)

    def bump(self, field: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + by)

    def snapshot(self) -> ResilienceInfo:
        with self._lock:
            return ResilienceInfo(*(getattr(self, field) for field in _STAT_FIELDS))

    def clear(self) -> None:
        with self._lock:
            for field in _STAT_FIELDS:
                setattr(self, field, 0)


class ErrorResult:
    """The failed slot of a batch under ``on_error="collect"``.

    Carries the exception plus the acquisition metadata the retry layer
    annotated it with (attempt count, elapsed seconds) and the slot's
    provenance (``url`` for fetched documents, ``index`` into the batch).

    Quacks like an empty :class:`~repro.api.results.QueryResult` —
    ``predicates()`` / ``tuples`` / ``nodes`` / ``texts`` are empty,
    ``ok`` is ``False`` — so mixed result lists can be consumed uniformly
    (``[r for r in results if r.ok]``).
    """

    __slots__ = ("error", "url", "index", "attempts", "elapsed_s", "backend")

    def __init__(
        self,
        error: BaseException,
        *,
        url: Optional[str] = None,
        index: Optional[int] = None,
        attempts: int = 1,
        elapsed_s: float = 0.0,
        backend: str = "error",
    ) -> None:
        self.error = error
        self.url = url
        self.index = index
        self.attempts = attempts
        self.elapsed_s = elapsed_s
        self.backend = backend

    @classmethod
    def from_exception(
        cls,
        error: BaseException,
        *,
        url: Optional[str] = None,
        index: Optional[int] = None,
        elapsed_s: float = 0.0,
        backend: str = "error",
    ) -> "ErrorResult":
        """Build a slot record, honouring retry-layer annotations.

        :class:`~repro.resilience.retry.ResilientFetcher` stamps the
        exceptions it gives up on with ``resilience_attempts`` /
        ``resilience_elapsed_s``; those win over the caller's elapsed
        measurement because they cover exactly the acquisition.
        """
        return cls(
            error,
            url=url,
            index=index,
            attempts=getattr(error, "resilience_attempts", 1),
            elapsed_s=getattr(error, "resilience_elapsed_s", elapsed_s),
            backend=backend,
        )

    # -- the empty-result quack (mirrors QueryResult's surface) ----------
    @property
    def ok(self) -> bool:
        return False

    def predicates(self) -> FrozenSet[str]:
        return frozenset()

    def tuples(self, predicate: str) -> FrozenSet[Tuple[object, ...]]:
        return frozenset()

    def nodes(self, predicate: str) -> Tuple[object, ...]:
        return ()

    def texts(self, predicate: str) -> Tuple[str, ...]:
        return ()

    def count(self, predicate: Optional[str] = None) -> int:
        return 0

    def __contains__(self, predicate: str) -> bool:
        return False

    def __bool__(self) -> bool:
        # A failed slot is falsy so `if result:` guards read naturally.
        return False

    def __repr__(self) -> str:
        where = self.url if self.url is not None else f"#{self.index}"
        return (
            f"ErrorResult({where}: {type(self.error).__name__}: {self.error}; "
            f"attempts={self.attempts}, elapsed={self.elapsed_s:.3f}s)"
        )
