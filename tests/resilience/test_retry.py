"""The retry loop, the circuit breaker and the resilient fetch boundary.

Clock and sleep are injected everywhere, so these tests drive logical time
and burn no wall-clock on backoffs or cooldowns.
"""

from __future__ import annotations

import pytest

from repro.html import parse_html
from repro.resilience import (
    CircuitOpenError,
    DeadlineExceeded,
    FaultPlan,
    FaultyFetcher,
    PermanentFetchError,
    ResiliencePolicy,
    ResilienceStats,
    ResilientFetcher,
    RetryPolicy,
    TransientFetchError,
    call_with_retry,
    is_transient,
)
from repro.resilience.retry import CircuitBreaker, host_of
from repro.web import StaticDocumentFetcher

FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0)


class FakeClock:
    """Logical time: ``sleep`` advances the clock instead of waiting."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def flaky(failures, error_type=TransientFetchError):
    """A callable failing ``failures`` times, then returning ``"ok"``."""
    state = {"calls": 0}

    def call():
        state["calls"] += 1
        if state["calls"] <= failures:
            raise error_type(f"boom #{state['calls']}")
        return "ok"

    call.state = state
    return call


# ---------------------------------------------------------------------------
# call_with_retry
# ---------------------------------------------------------------------------


def test_success_on_first_attempt_records_one_attempt_no_retries():
    stats = ResilienceStats()
    assert call_with_retry(flaky(0), FAST, stats=stats) == "ok"
    info = stats.snapshot()
    assert (info.attempts, info.retries, info.failures) == (1, 0, 0)


def test_fail_n_then_succeed_retries_transient_errors():
    stats = ResilienceStats()
    call = flaky(2)
    assert call_with_retry(call, FAST, stats=stats) == "ok"
    assert call.state["calls"] == 3
    info = stats.snapshot()
    assert (info.attempts, info.retries, info.failures) == (3, 2, 0)


def test_permanent_errors_propagate_from_the_first_attempt():
    stats = ResilienceStats()
    call = flaky(5, error_type=PermanentFetchError)
    with pytest.raises(PermanentFetchError) as caught:
        call_with_retry(call, FAST, stats=stats)
    assert call.state["calls"] == 1
    assert caught.value.resilience_attempts == 1
    assert stats.snapshot().failures == 1


def test_exhaustion_raises_the_last_error_annotated():
    call = flaky(99)
    with pytest.raises(TransientFetchError) as caught:
        call_with_retry(call, FAST)
    assert call.state["calls"] == 3
    assert caught.value.resilience_attempts == 3
    assert caught.value.resilience_elapsed_s >= 0.0
    assert "boom #3" in str(caught.value)


def test_builtin_transient_types_are_retried():
    assert is_transient(ConnectionError("reset"))
    assert is_transient(TimeoutError("slow"))
    assert not is_transient(ValueError("bug"))
    assert call_with_retry(flaky(1, error_type=ConnectionError), FAST) == "ok"


def test_backoff_schedule_is_exponential_and_capped():
    policy = RetryPolicy(
        max_attempts=5, backoff_base_s=0.1, backoff_multiplier=2.0,
        backoff_max_s=0.3, jitter=0.0,
    )
    naps = []
    with pytest.raises(TransientFetchError):
        call_with_retry(flaky(99), policy, sleep=naps.append)
    assert naps == pytest.approx([0.1, 0.2, 0.3, 0.3])
    # backoff_for is 2-based: no sleep before the first attempt.
    assert policy.backoff_for(1) == 0.0
    assert policy.backoff_for(4) == pytest.approx(0.3)


def test_jitter_is_seeded_and_shaves_at_most_the_jitter_fraction():
    policy = RetryPolicy(max_attempts=4, backoff_base_s=0.1, jitter=0.2, seed=5)

    def naps_of(label):
        naps = []
        with pytest.raises(TransientFetchError):
            call_with_retry(flaky(99), policy, label=label, sleep=naps.append)
        return naps

    first, second = naps_of("u.test"), naps_of("u.test")
    assert first == second  # deterministic per (seed, label, attempt)
    for nap, nominal in zip(first, [0.1, 0.2, 0.4]):
        assert nominal * 0.8 <= nap <= nominal
    assert naps_of("other.test") != first  # streams differ per label


def test_deadline_bounds_the_whole_loop_and_carries_the_last_error():
    clock = FakeClock()
    policy = RetryPolicy(
        max_attempts=10, backoff_base_s=1.0, backoff_multiplier=2.0,
        backoff_max_s=10.0, jitter=0.0, deadline_s=2.5,
    )
    with pytest.raises(DeadlineExceeded) as caught:
        call_with_retry(
            flaky(99), policy, clock=clock, sleep=clock.sleep
        )
    # t=0 attempt 1 fails; sleep 1 -> t=1; attempt 2 fails; the 2s backoff
    # is clamped to the 1.5s remaining -> t=2.5; the deadline gate trips.
    assert clock.now == pytest.approx(2.5)
    assert isinstance(caught.value.__cause__, TransientFetchError)
    assert caught.value.resilience_attempts == 2
    assert isinstance(caught.value, KeyError)  # still a FetchError


def test_attempt_timeout_turns_a_late_success_into_a_transient_failure():
    clock = FakeClock()
    durations = iter([5.0, 0.1])

    def call():
        clock.now += next(durations)
        return "ok"

    policy = RetryPolicy(
        max_attempts=2, backoff_base_s=0.0, jitter=0.0, attempt_timeout_s=1.0
    )
    assert call_with_retry(call, policy, clock=clock, sleep=clock.sleep) == "ok"

    # Every attempt late: the loop exhausts with the timeout as last error.
    def always_slow():
        clock.now += 5.0
        return "ok"

    with pytest.raises(TimeoutError) as caught:
        call_with_retry(always_slow, policy, clock=clock, sleep=clock.sleep)
    assert caught.value.resilience_attempts == 2


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=2.0)
    with pytest.raises(ValueError):
        RetryPolicy(deadline_s=0)
    with pytest.raises(ValueError):
        ResiliencePolicy(on_error="explode")
    with pytest.raises(ValueError):
        ResiliencePolicy(breaker_threshold=-1)
    derived = FAST.derive(max_attempts=7)
    assert derived.max_attempts == 7 and FAST.max_attempts == 3


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


def test_breaker_opens_after_threshold_and_half_opens_after_cooldown():
    clock = FakeClock()
    stats = ResilienceStats()
    breaker = CircuitBreaker(3, 10.0, clock=clock, stats=stats)
    host = "down.test"

    for _ in range(2):
        breaker.record_failure(host)
    assert breaker.state_of(host) == "closed"
    breaker.record_failure(host)
    assert breaker.state_of(host) == "open"
    assert stats.snapshot().breaker_trips == 1

    with pytest.raises(CircuitOpenError) as caught:
        breaker.check(host, "down.test/page")
    assert caught.value.host == host
    assert stats.snapshot().breaker_rejections == 1

    clock.now += 10.0
    assert breaker.state_of(host) == "half-open"
    breaker.check(host)  # the probe is let through
    breaker.record_success(host)
    assert breaker.state_of(host) == "closed"


def test_breaker_failed_probe_reopens_for_another_cooldown():
    clock = FakeClock()
    stats = ResilienceStats()
    breaker = CircuitBreaker(2, 5.0, clock=clock, stats=stats)
    breaker.record_failure("h")
    breaker.record_failure("h")
    clock.now += 5.0
    breaker.check("h")  # half-open probe allowed
    breaker.record_failure("h")  # probe fails: re-open immediately
    assert breaker.state_of("h") == "open"
    assert stats.snapshot().breaker_trips == 2
    with pytest.raises(CircuitOpenError):
        breaker.check("h")


def test_breaker_is_per_host_and_threshold_zero_disables():
    breaker = CircuitBreaker(1, 60.0)
    breaker.record_failure("bad.test")
    with pytest.raises(CircuitOpenError):
        breaker.check("bad.test")
    breaker.check("good.test")  # unaffected host

    disabled = CircuitBreaker(0, 60.0)
    for _ in range(10):
        disabled.record_failure("h")
    disabled.check("h")
    assert disabled.state_of("h") == "closed"


def test_host_of_strips_scheme_and_path():
    assert host_of("https://Books.Test/bestsellers") == "books.test"
    assert host_of("http://a.test/x/y") == "a.test"
    assert host_of("a.test") == "a.test"
    assert host_of(" a.test/x ") == "a.test"


# ---------------------------------------------------------------------------
# ResilientFetcher
# ---------------------------------------------------------------------------


def _static(urls):
    document = parse_html("<body><p>x</p></body>")
    return StaticDocumentFetcher({url: document for url in urls})


def test_resilient_fetcher_recovers_from_fail_n_then_succeed():
    plan = FaultPlan().fail_transient("a.test", times=2)
    policy = ResiliencePolicy(retry=FAST)
    fetcher = ResilientFetcher(FaultyFetcher(_static(["a.test"]), plan), policy)
    assert fetcher.fetch("a.test/page").find_first("p") is not None
    info = fetcher.info()
    assert (info.attempts, info.retries, info.failures) == (3, 2, 0)


def test_resilient_fetcher_gives_permanent_errors_one_attempt():
    fetcher = ResilientFetcher(_static(["a.test"]), ResiliencePolicy(retry=FAST))
    with pytest.raises(PermanentFetchError) as caught:
        fetcher.fetch("missing.test")
    assert caught.value.resilience_attempts == 1
    assert fetcher.info().failures == 1


def test_resilient_fetcher_trips_the_breaker_then_rejects_fast():
    clock = FakeClock()
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0, jitter=0.0),
        breaker_threshold=2,
        breaker_cooldown_s=30.0,
    )
    base = _static(["alive.test"])
    fetcher = ResilientFetcher(base, policy, sleep=clock.sleep, clock=clock)
    for _ in range(2):
        with pytest.raises(PermanentFetchError):
            fetcher.fetch("dead.test/page")
    assert fetcher.breaker.state_of("dead.test") == "open"
    with pytest.raises(CircuitOpenError):
        fetcher.fetch("dead.test/page")
    info = fetcher.info()
    assert info.breaker_trips == 1
    assert info.breaker_rejections == 1
    # Other hosts keep flowing while dead.test cools down.
    assert fetcher.fetch("alive.test").find_first("p") is not None
    # After the cooldown the probe goes through (and here succeeds).
    clock.now += 30.0
    base._documents["dead.test/page"] = parse_html("<body><p>back</p></body>")
    assert fetcher.fetch("dead.test/page") is not None
    assert fetcher.breaker.state_of("dead.test") == "closed"


def test_shared_stats_aggregate_across_fetchers():
    stats = ResilienceStats()
    policy = ResiliencePolicy(retry=FAST)
    for _ in range(2):
        plan = FaultPlan().fail_transient("*", times=1)
        wrapped = ResilientFetcher(
            FaultyFetcher(_static(["a.test"]), plan), policy, stats=stats
        )
        wrapped.fetch("a.test")
    info = stats.snapshot()
    assert (info.attempts, info.retries) == (4, 2)
    stats.clear()
    assert stats.snapshot().attempts == 0
