"""Retry, backoff, deadlines and per-host circuit breaking.

:func:`call_with_retry` is the core loop — attempts, exponential backoff
with seeded jitter, a cooperative per-attempt timeout and a total deadline
budget, all driven by a :class:`~repro.resilience.policy.RetryPolicy`.
:class:`ResilientFetcher` applies it at the fetch boundary (the only place
the serving stack talks to the outside world) and adds a per-host
:class:`CircuitBreaker`, so a source that keeps failing stops being
hammered and gets probed again after a cooldown.

Clock and sleep are injectable everywhere: tests drive logical time, and a
zero-backoff policy retries without burning wall-clock.

When the loop gives up, the raised exception is annotated with
``resilience_attempts`` and ``resilience_elapsed_s`` —
:meth:`~repro.resilience.policy.ErrorResult.from_exception` reads those to
fill the batch paths' per-slot failure metadata.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, Optional, TypeVar

from ..elog.extractor import Fetcher, Page
from .errors import CircuitOpenError, DeadlineExceeded, is_transient
from .policy import ResiliencePolicy, ResilienceStats, RetryPolicy

ResultT = TypeVar("ResultT")


def host_of(url: str) -> str:
    """The breaker key of ``url``: the host part, scheme-insensitively."""
    trimmed = url.strip().lower()
    for prefix in ("https://", "http://"):
        if trimmed.startswith(prefix):
            trimmed = trimmed[len(prefix):]
    return trimmed.split("/", 1)[0]


class _HostState:
    __slots__ = ("consecutive_failures", "opened_at", "half_open")

    def __init__(self) -> None:
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.half_open = False


class CircuitBreaker:
    """A per-host circuit breaker (closed → open → half-open → closed).

    ``threshold`` consecutive failures of one host open its circuit: calls
    fail immediately with :class:`CircuitOpenError` (no load on a source
    that is clearly down).  After ``cooldown_s`` the next call is let
    through as a *probe* (half-open); its success closes the circuit, its
    failure re-opens it for another cooldown.  ``threshold=0`` disables
    the breaker entirely.

    Thread-safe; ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 30.0,
        *,
        clock: Callable[[], float] = time.monotonic,
        stats: Optional[ResilienceStats] = None,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"breaker threshold must be >= 0, got {threshold}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._stats = stats
        self._hosts: Dict[str, _HostState] = {}
        self._lock = threading.Lock()

    def _state(self, host: str) -> _HostState:
        state = self._hosts.get(host)
        if state is None:
            state = self._hosts[host] = _HostState()
        return state

    def check(self, host: str, url: str = "") -> None:
        """Raise :class:`CircuitOpenError` when ``host`` may not be called."""
        if self.threshold == 0:
            return
        with self._lock:
            state = self._state(host)
            if state.opened_at is None:
                return
            elapsed = self._clock() - state.opened_at
            if elapsed < self.cooldown_s:
                if self._stats is not None:
                    self._stats.bump("breaker_rejections")
                raise CircuitOpenError(
                    f"circuit for host {host!r} is open "
                    f"({state.consecutive_failures} consecutive failures; "
                    f"retry in {self.cooldown_s - elapsed:.1f}s)",
                    url=url,
                    host=host,
                )
            # Cooldown elapsed: half-open — let this call probe the host.
            state.half_open = True

    def record_success(self, host: str) -> None:
        if self.threshold == 0:
            return
        with self._lock:
            state = self._state(host)
            state.consecutive_failures = 0
            state.opened_at = None
            state.half_open = False

    def record_failure(self, host: str) -> None:
        if self.threshold == 0:
            return
        with self._lock:
            state = self._state(host)
            state.consecutive_failures += 1
            if state.half_open or state.consecutive_failures >= self.threshold:
                if state.opened_at is None or state.half_open:
                    if self._stats is not None:
                        self._stats.bump("breaker_trips")
                state.opened_at = self._clock()
                state.half_open = False

    def state_of(self, host: str) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (introspection)."""
        if self.threshold == 0:
            return "closed"
        with self._lock:
            state = self._hosts.get(host)
            if state is None or state.opened_at is None:
                return "closed"
            if self._clock() - state.opened_at >= self.cooldown_s:
                return "half-open"
            return "open"


def _annotate(error: BaseException, attempts: int, elapsed_s: float) -> BaseException:
    # Best-effort: exceptions with __slots__ and no __dict__ stay bare.
    try:
        error.resilience_attempts = attempts  # type: ignore[attr-defined]
        error.resilience_elapsed_s = elapsed_s  # type: ignore[attr-defined]
    except AttributeError:  # pragma: no cover - exotic exception types
        pass
    return error


def call_with_retry(
    call: Callable[[], ResultT],
    policy: RetryPolicy,
    *,
    label: str = "",
    stats: Optional[ResilienceStats] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> ResultT:
    """Run ``call`` under ``policy``; raise the final (annotated) error.

    Retries only transient failures (:func:`~repro.resilience.errors.
    is_transient`); permanent errors propagate from the first attempt.  A
    completed attempt that overran ``attempt_timeout_s`` counts as a
    transient timeout failure (cooperative enforcement — see the policy's
    docstring).  ``deadline_s`` bounds the whole loop, backoffs included.
    """
    start = clock()
    last_error: Optional[BaseException] = None
    attempt = 0
    while attempt < policy.max_attempts:
        attempt += 1
        if policy.deadline_s is not None and clock() - start >= policy.deadline_s:
            deadline = DeadlineExceeded(
                f"deadline of {policy.deadline_s}s exhausted after "
                f"{attempt - 1} attempt(s){f' of {label}' if label else ''}"
            )
            deadline.__cause__ = last_error
            raise _annotate(deadline, attempt - 1, clock() - start)
        if stats is not None:
            stats.bump("attempts")
            if attempt > 1:
                stats.bump("retries")
        attempt_start = clock()
        try:
            result = call()
        except BaseException as error:
            last_error = error
            if not is_transient(error):
                if stats is not None:
                    stats.bump("failures")
                raise _annotate(error, attempt, clock() - start)
        else:
            attempt_elapsed = clock() - attempt_start
            if (
                policy.attempt_timeout_s is not None
                and attempt_elapsed > policy.attempt_timeout_s
            ):
                last_error = TimeoutError(
                    f"attempt {attempt}{f' of {label}' if label else ''} took "
                    f"{attempt_elapsed:.3f}s (timeout {policy.attempt_timeout_s}s)"
                )
            else:
                return result
        if attempt < policy.max_attempts:
            backoff = policy.backoff_for(attempt + 1)
            if backoff > 0:
                if policy.jitter:
                    fraction = random.Random(
                        f"{policy.seed}/{label}/{attempt}"
                    ).random()
                    backoff -= backoff * policy.jitter * fraction
                if policy.deadline_s is not None:
                    remaining = policy.deadline_s - (clock() - start)
                    backoff = min(backoff, max(0.0, remaining))
                sleep(backoff)
    if stats is not None:
        stats.bump("failures")
    assert last_error is not None
    raise _annotate(last_error, attempt, clock() - start)


class ResilientFetcher(Fetcher):
    """A fetcher hardened with retry, deadline and circuit breaking.

    Wraps any :class:`~repro.elog.extractor.Fetcher`.  Every
    :meth:`fetch_page` runs through :func:`call_with_retry` under the
    policy's :class:`~repro.resilience.policy.RetryPolicy`; a per-host
    :class:`CircuitBreaker` sits in front of the attempts, so a host that
    keeps failing is rejected fast until its cooldown elapses.  ``fetch`` is
    the :class:`~repro.elog.extractor.Fetcher` default over
    :meth:`fetch_page`, so it retries too.  All accounting reports into a
    (shareable) :class:`ResilienceStats`.
    """

    def __init__(
        self,
        base: Fetcher,
        policy: Optional[ResiliencePolicy] = None,
        *,
        stats: Optional[ResilienceStats] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.base = base
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.stats = stats if stats is not None else ResilienceStats()
        self._sleep = sleep
        self._clock = clock
        self.breaker = CircuitBreaker(
            self.policy.breaker_threshold,
            self.policy.breaker_cooldown_s,
            clock=clock,
            stats=self.stats,
        )

    def fetch_page(self, url: str) -> Page:
        host = host_of(url)

        def attempt() -> Page:
            self.breaker.check(host, url)
            try:
                page = self.base.fetch_page(url)
            except CircuitOpenError:
                raise
            except BaseException:
                self.breaker.record_failure(host)
                raise
            self.breaker.record_success(host)
            return page

        return call_with_retry(
            attempt,
            self.policy.retry,
            label=url,
            stats=self.stats,
            sleep=self._sleep,
            clock=self._clock,
        )

    def info(self):
        """This fetcher's :class:`~repro.resilience.policy.ResilienceInfo`."""
        return self.stats.snapshot()
