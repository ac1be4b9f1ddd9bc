"""Concurrency and eviction-fairness guarantees of the cache layer.

PR 5 makes every session-scale cache in :mod:`repro.datalog.cache` safe to
share across server request threads (internal locking, consistent counters,
single-flight builds) and fixes the per-bucket LRU unfairness of
:class:`VerifiedLruBuckets` (recency and eviction are now per *entry*, so a
hash-colliding hot entry can neither be evicted because of a cold
bucket-mate nor keep one alive).

The thread tests are deliberately structured so a regression deadlocks or
mis-counts rather than passing by luck; CI runs this file under
``pytest-timeout`` so a hang fails fast.
"""

from __future__ import annotations

import threading
from typing import Callable, List

import pytest

from repro.datalog import EngineOptions, SemiNaiveEngine, parse_program, tree_database
from repro.datalog.cache import (
    FixpointCache,
    LruMap,
    SingleFlight,
    VerifiedLruBuckets,
)
from repro.tree import random_tree

THREADS = 8
ROUNDS = 400


def run_threads(count: int, work: Callable[[int], None]) -> None:
    """Run ``work(i)`` on ``count`` threads, gate-started, join with timeout."""
    errors: List[BaseException] = []
    barrier = threading.Barrier(count)

    def runner(index: int) -> None:
        try:
            barrier.wait(timeout=10)
            work(index)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=runner, args=(index,), daemon=True)
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "worker thread hung"
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Per-entry LRU fairness (regression: per-bucket recency/eviction)
# ---------------------------------------------------------------------------


def test_hot_entry_survives_fingerprint_collision_eviction():
    """A hot entry must not be evicted because its cold bucket-mate is old.

    The pre-PR-5 buckets refreshed recency for the whole fingerprint bucket
    and evicted the front of the *oldest bucket* — in this scenario that
    evicted the repeatedly-touched entry ``a`` instead of the never-touched
    ``b``.
    """
    buckets: VerifiedLruBuckets[object] = VerifiedLruBuckets(2)
    a, b, c = object(), object(), object()
    buckets.insert(7, a)
    buckets.insert(7, b)  # same fingerprint: forced hash collision
    assert buckets.find(7, lambda entry: entry is a) is a  # a is now hot
    buckets.insert(9, c)  # over capacity: must evict the LRU entry (b)
    assert len(buckets) == 2
    assert buckets.find(7, lambda entry: entry is a) is a
    assert buckets.find(7, lambda entry: entry is b) is None
    assert buckets.find(9, lambda entry: entry is c) is c


def test_cold_entry_is_not_kept_alive_by_hot_bucket_mate():
    """The reverse unfairness: a cold entry must age out even when it shares
    a bucket with a hot one."""
    buckets: VerifiedLruBuckets[object] = VerifiedLruBuckets(2)
    cold, hot, fresh = object(), object(), object()
    buckets.insert(3, cold)
    buckets.insert(3, hot)
    for _ in range(5):
        assert buckets.find(3, lambda entry: entry is hot) is hot
    buckets.insert(4, fresh)
    assert buckets.find(3, lambda entry: entry is cold) is None
    assert buckets.find(3, lambda entry: entry is hot) is hot
    assert buckets.find(4, lambda entry: entry is fresh) is fresh


def test_eviction_is_globally_least_recently_used_across_buckets():
    buckets: VerifiedLruBuckets[str] = VerifiedLruBuckets(3)
    buckets.insert(1, "one")
    buckets.insert(2, "two")
    buckets.insert(3, "three")
    assert buckets.find(1, lambda entry: entry == "one") == "one"  # refresh 1
    buckets.insert(4, "four")  # evicts 2, the global LRU
    assert buckets.find(2, lambda entry: entry == "two") is None
    assert buckets.find(1, lambda entry: entry == "one") == "one"
    assert buckets.find(3, lambda entry: entry == "three") == "three"


# ---------------------------------------------------------------------------
# Lock correctness under thread stress
# ---------------------------------------------------------------------------


def test_lru_map_counters_and_size_stay_consistent_under_threads():
    lru: LruMap[int, int] = LruMap(16)
    for key in range(16):
        lru.put(key, key)

    def work(index: int) -> None:
        for round_ in range(ROUNDS):
            key = (index * ROUNDS + round_) % 48
            value = lru.get(key)
            if value is None:
                lru.put(key, key)
            else:
                assert value == key

    run_threads(THREADS, work)
    info = lru.info()
    # Exactly one hit-or-miss increment per get(): no lost updates.
    assert info.hits + info.misses == THREADS * ROUNDS
    assert info.size == len(lru) <= lru.capacity


def test_lru_map_concurrent_eviction_never_corrupts_structure():
    lru: LruMap[int, int] = LruMap(4)

    def work(index: int) -> None:
        for round_ in range(ROUNDS):
            lru.put((index, round_), round_)
            lru.get((index, round_ - 1))

    run_threads(THREADS, work)
    assert len(lru) <= 4
    # The structure is still a functional LRU afterwards.
    lru.put(("probe",), 42)
    assert lru.get(("probe",)) == 42


def test_fixpoint_cache_counts_every_lookup_under_threads():
    cache: FixpointCache[str] = FixpointCache(4)
    databases = [{"edge": {(i, i + 1), (i, i + 2)}} for i in range(6)]

    def work(index: int) -> None:
        for round_ in range(ROUNDS // 4):
            database = databases[(index + round_) % len(databases)]
            fingerprint, result = cache.lookup(database)
            if result is None:
                cache.store(fingerprint, database, f"result-{sorted(database['edge'])}")

    run_threads(THREADS, work)
    info = cache.info()
    assert info.hits + info.misses == THREADS * (ROUNDS // 4)
    assert info.size == len(cache) <= cache.capacity
    # Verified hits: every cached result still matches its database exactly.
    for database in databases:
        _, result = cache.lookup(database)
        if result is not None:
            assert result == f"result-{sorted(database['edge'])}"


def test_verified_buckets_concurrent_insert_find_keeps_len_within_capacity():
    buckets: VerifiedLruBuckets[int] = VerifiedLruBuckets(8)

    def work(index: int) -> None:
        for round_ in range(ROUNDS):
            fingerprint = round_ % 5  # force constant collisions
            marker = index * ROUNDS + round_
            buckets.insert(fingerprint, marker)
            buckets.find(fingerprint, lambda entry: entry == marker)

    run_threads(THREADS, work)
    assert len(buckets) == 8


# ---------------------------------------------------------------------------
# Single-flight builds
# ---------------------------------------------------------------------------


def test_single_flight_builds_exactly_once_per_key():
    flight = SingleFlight()
    memo: LruMap[str, object] = LruMap(8)
    builds = []
    gate = threading.Event()

    def build() -> object:
        builds.append(threading.get_ident())
        gate.wait(timeout=10)  # hold every waiter on the in-flight build
        return object()

    results = []
    lock = threading.Lock()

    def work(index: int) -> None:
        if index == THREADS - 1:
            # Last thread through releases the builder once everyone queued.
            gate.set()
        value = flight.run(
            "key", lambda: memo.get("key"), build, lambda v: memo.put("key", v)
        )
        with lock:
            results.append(value)

    run_threads(THREADS, work)
    assert len(builds) == 1, "concurrent misses must share one build"
    assert len(set(map(id, results))) == 1, "every caller got the one instance"
    assert memo.get("key") is results[0]


def test_single_flight_failed_build_wakes_waiters_and_allows_retry():
    flight = SingleFlight()
    memo: LruMap[str, object] = LruMap(8)
    attempts = []

    def build() -> object:
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("first build fails")
        return "built"

    outcomes = []
    lock = threading.Lock()

    def work(index: int) -> None:
        try:
            value = flight.run(
                "key", lambda: memo.get("key"), build, lambda v: memo.put("key", v)
            )
        except RuntimeError as error:
            with lock:
                outcomes.append(error)
        else:
            with lock:
                outcomes.append(value)

    run_threads(4, work)
    assert len(outcomes) == 4
    assert any(outcome == "built" for outcome in outcomes)
    # The key is not wedged: a later caller gets the memoised value.
    assert (
        flight.run("key", lambda: memo.get("key"), build, lambda v: memo.put("key", v))
        == "built"
    )


def test_single_flight_failed_store_does_not_wedge_the_key():
    """A store() exception must release the key and wake waiters — the
    'an exception never wedges a key' guarantee covers the whole
    build-then-store sequence, not just build()."""
    flight = SingleFlight()
    memo: LruMap[str, str] = LruMap(8)
    stores = []

    def failing_store(value: str) -> None:
        stores.append(value)
        if len(stores) == 1:
            raise RuntimeError("store fails once")
        memo.put("key", value)

    with pytest.raises(RuntimeError):
        flight.run("key", lambda: memo.get("key"), lambda: "built", failing_store)
    # The key is free again: the next caller builds and stores normally.
    assert (
        flight.run("key", lambda: memo.get("key"), lambda: "built", failing_store)
        == "built"
    )
    assert memo.get("key") == "built"


def test_cache_capacity_validation_still_raises():
    with pytest.raises(ValueError):
        LruMap(0)
    with pytest.raises(ValueError):
        VerifiedLruBuckets(0)


def test_engine_document_fixpoints_under_threads():
    # Documents key the engine's one fixpoint cache by their exact tree
    # fingerprint: equal-but-distinct documents queried from many threads
    # all get the right answer, and every lookup is counted.
    program = parse_program(
        """
        desc(X, Y) :- child(X, Y).
        desc(X, Y) :- desc(X, Z), child(Z, Y).
        """
    )
    engine = SemiNaiveEngine(program, options=EngineOptions(cache_size=4))
    shapes = [(20 + size, size) for size in range(6)]
    expected = [
        SemiNaiveEngine(program).evaluate(tree_database(random_tree(n, seed=seed)))["desc"]
        for n, seed in shapes
    ]
    rounds = ROUNDS // 20

    def work(index: int) -> None:
        for round_ in range(rounds):
            shape = (index + round_) % len(shapes)
            n, seed = shapes[shape]
            assert engine.query(random_tree(n, seed=seed), "desc") == expected[shape]

    run_threads(THREADS, work)
    info = engine.fixpoint_cache_info()
    assert info.hits + info.misses == THREADS * rounds
    assert info.size <= 4
