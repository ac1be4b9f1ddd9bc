"""Fault tolerance for the serving stack.

The subsystem in five pieces, each its own module:

* :mod:`~repro.resilience.errors` — the failure vocabulary
  (:class:`FetchError` and friends, transient/permanent classification);
* :mod:`~repro.resilience.policy` — declarative knobs
  (:class:`RetryPolicy`, :class:`ResiliencePolicy`), thread-safe counters
  (:class:`ResilienceStats` → :class:`ResilienceInfo`) and the
  :class:`ErrorResult` slot record for isolated batch failures;
* :mod:`~repro.resilience.faults` — seeded deterministic fault injection
  (:class:`FaultPlan`, :class:`FaultyFetcher`);
* :mod:`~repro.resilience.retry` — the enforcement layer
  (:func:`call_with_retry`, :class:`CircuitBreaker`,
  :class:`ResilientFetcher`);
* :mod:`~repro.resilience.batch` — the one batch executor behind
  ``Session.query_many`` / ``extract_many`` and
  ``TransformationServer.run_all`` (the lazy task runner and the
  ``on_error`` slot policy).
"""

from .errors import (
    TRANSIENT_ERRORS,
    CircuitOpenError,
    DeadlineExceeded,
    FetchError,
    PermanentFetchError,
    TransientFetchError,
    WorkerCrashError,
    is_transient,
)
from .faults import FaultDecision, FaultPlan, FaultyFetcher
from .policy import (
    DEFAULT_RESILIENCE,
    ON_ERROR_POLICIES,
    ErrorResult,
    ResilienceInfo,
    ResiliencePolicy,
    ResilienceStats,
    RetryPolicy,
)
from .retry import CircuitBreaker, ResilientFetcher, call_with_retry, host_of

__all__ = [
    "TRANSIENT_ERRORS",
    "CircuitOpenError",
    "DeadlineExceeded",
    "FetchError",
    "PermanentFetchError",
    "TransientFetchError",
    "WorkerCrashError",
    "is_transient",
    "FaultDecision",
    "FaultPlan",
    "FaultyFetcher",
    "DEFAULT_RESILIENCE",
    "ON_ERROR_POLICIES",
    "ErrorResult",
    "ResilienceInfo",
    "ResiliencePolicy",
    "ResilienceStats",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilientFetcher",
    "call_with_retry",
    "host_of",
]
