"""Deterministic fault injection: FaultPlan rules and FaultyFetcher.

Everything here must be replayable — the same seed and the same fetch
sequence produce the same faults, whatever the thread interleaving across
URLs.  A chaos run that cannot be replayed is a flake generator.
"""

from __future__ import annotations

import pytest

from repro.html import parse_html
from repro.resilience import (
    FaultPlan,
    FaultyFetcher,
    FetchError,
    PermanentFetchError,
    TransientFetchError,
)
from repro.web import StaticDocumentFetcher


def _static(urls):
    document = parse_html("<body><p>x</p></body>")
    return StaticDocumentFetcher({url: document for url in urls})


# ---------------------------------------------------------------------------
# Rule semantics
# ---------------------------------------------------------------------------


def test_fail_transient_fires_on_the_first_n_fetches_only():
    plan = FaultPlan().fail_transient("shop.test", times=2)
    first = plan.decide("shop.test/list")
    second = plan.decide("shop.test/list")
    third = plan.decide("shop.test/list")
    assert isinstance(first.error, TransientFetchError)
    assert isinstance(second.error, TransientFetchError)
    assert third.error is None
    assert plan.injected["transient"] == 2
    # Counters are per URL: a sibling page starts its own window.
    assert isinstance(plan.decide("shop.test/other").error, TransientFetchError)


def test_fail_transient_after_offsets_the_window():
    plan = FaultPlan().fail_transient("*", times=1, after=1)
    assert plan.decide("a.test").error is None
    assert isinstance(plan.decide("a.test").error, TransientFetchError)
    assert plan.decide("a.test").error is None


def test_fail_permanent_fires_forever_and_is_a_key_error():
    plan = FaultPlan().fail_permanent("gone.test")
    for _ in range(3):
        error = plan.decide("gone.test/page").error
        assert isinstance(error, PermanentFetchError)
        assert isinstance(error, FetchError)
        assert isinstance(error, KeyError)  # the pre-resilience contract
        assert error.url == "gone.test/page"
    assert plan.injected["permanent"] == 3
    assert plan.decide("alive.test").error is None


def test_first_failing_rule_wins_but_latency_accumulates():
    plan = (
        FaultPlan()
        .add_latency("slow.test", 0.5)
        .add_latency("slow.test", 0.25)
        .fail_permanent("slow.test")
        .fail_transient("slow.test", times=9)
    )
    decision = plan.decide("slow.test")
    assert decision.delay_s == pytest.approx(0.75)
    assert isinstance(decision.error, PermanentFetchError)  # first rule wins
    assert plan.injected == {"transient": 0, "permanent": 1, "latency": 1}


def test_latency_window_and_unmatched_urls():
    plan = FaultPlan().add_latency("slow.test", 0.1, times=1, after=1)
    assert plan.decide("slow.test").delay_s == 0.0
    assert plan.decide("slow.test").delay_s == pytest.approx(0.1)
    assert plan.decide("slow.test").delay_s == 0.0
    assert plan.decide("fast.test").delay_s == 0.0


def test_pattern_is_substring_and_star_matches_all():
    plan = FaultPlan().fail_permanent("books")
    assert plan.decide("a.test/books/1").error is not None
    assert plan.decide("a.test/music/1").error is None
    star = FaultPlan().fail_transient("*", times=1)
    assert star.decide("anything.test").error is not None


def test_rule_validation():
    with pytest.raises(ValueError):
        FaultPlan().fail_transient(times=0)
    with pytest.raises(ValueError):
        FaultPlan().add_latency("*", -0.1)
    with pytest.raises(ValueError):
        FaultPlan().fail_rate(1.5)


def test_fetch_count_tracks_adjudications():
    plan = FaultPlan()
    assert plan.fetch_count("a.test") == 0
    plan.decide("a.test")
    plan.decide("a.test")
    assert plan.fetch_count("a.test") == 2
    assert plan.fetch_count("b.test") == 0


# ---------------------------------------------------------------------------
# Seeded rate faults
# ---------------------------------------------------------------------------


def test_fail_rate_is_deterministic_per_seed():
    urls = [f"site-{i}.test/page" for i in range(40)]

    def decisions(seed):
        plan = FaultPlan(seed=seed).fail_rate(0.5)
        return [plan.decide(url).error is not None for url in urls for _ in range(3)]

    assert decisions(7) == decisions(7)  # replayable
    assert any(decisions(7))  # the storm actually storms
    assert not all(decisions(7))  # ... but is not a blackout


def test_fail_rate_hits_roughly_the_requested_rate():
    plan = FaultPlan(seed=3).fail_rate(0.2)
    hits = sum(
        plan.decide(f"u-{i}.test").error is not None for i in range(500)
    )
    assert 50 <= hits <= 150  # 20% of 500, with generous slack


def test_fail_rate_max_failures_bounds_the_consecutive_streak():
    # rate=1.0 would fail forever; max_failures=2 guarantees the third
    # consecutive fetch of any URL passes — so a retry policy with
    # max_attempts > 2 always recovers.
    plan = FaultPlan(seed=1).fail_rate(1.0, max_failures=2)
    outcomes = [plan.decide("hot.test").error is not None for _ in range(6)]
    assert outcomes[:3] == [True, True, False]
    streak = 0
    for failed in outcomes:
        streak = streak + 1 if failed else 0
        assert streak <= 2


# ---------------------------------------------------------------------------
# FaultyFetcher
# ---------------------------------------------------------------------------


def test_faulty_fetcher_injects_then_delegates():
    plan = FaultPlan().fail_transient("a.test", times=1)
    fetcher = FaultyFetcher(_static(["a.test"]), plan)
    with pytest.raises(TransientFetchError):
        fetcher.fetch("a.test")
    assert fetcher.fetch("a.test").find_first("p").normalized_text() == "x"


def test_faulty_fetcher_sleeps_injected_latency_through_the_hook():
    naps = []
    plan = FaultPlan().add_latency("a.test", 0.25, times=1)
    fetcher = FaultyFetcher(_static(["a.test"]), plan, sleep=naps.append)
    fetcher.fetch("a.test")
    fetcher.fetch("a.test")
    assert naps == [0.25]
