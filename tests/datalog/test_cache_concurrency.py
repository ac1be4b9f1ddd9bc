"""Concurrency and eviction-fairness guarantees of the cache layer.

Every cache in :mod:`repro` is an :class:`LruMap` filled through
``get_or_build``: internal locking, consistent counters, single-flight
builds, and per-*entry* recency and eviction, so a hash-colliding hot entry
can neither be evicted because of a cold key sharing its hash nor keep one
alive.

The thread tests are deliberately structured so a regression deadlocks or
mis-counts rather than passing by luck; CI runs this file under
``pytest-timeout`` so a hang fails fast.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List

import pytest

from repro.datalog import EngineOptions, SemiNaiveEngine, parse_program, tree_database
from repro.datalog.cache import ContentKey, LruMap, database_content_hash
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


def colliding_key(marker: int, content_hash: int = 7) -> ContentKey:
    """A key whose hash is forced, so distinct markers collide."""
    return ContentKey(marker, content_hash)


def cached(lru: LruMap, key: object) -> bool:
    """Whether ``key`` is resident; a miss builds (and inserts) a placeholder."""
    built = []
    lru.get_or_build(key, lambda: built.append(key) or "rebuilt")
    return not built


# ---------------------------------------------------------------------------
# Per-entry LRU fairness under hash collisions
# ---------------------------------------------------------------------------


def test_colliding_databases_share_a_content_hash():
    a, b = {"q": {(1,)}}, {"q": {(2**61,)}}
    assert database_content_hash(a) == database_content_hash(b)
    key_a = ContentKey(a, database_content_hash(a))
    key_b = ContentKey(b, database_content_hash(b))
    assert hash(key_a) == hash(key_b) and key_a != key_b
    lru: LruMap[ContentKey, str] = LruMap(2)
    assert lru.get_or_build(key_a, lambda: "a") == "a"
    assert lru.get_or_build(key_b, lambda: "b") == "b"
    assert len(lru) == 2  # both resident, each hit verified exactly
    assert lru.get_or_build(ContentKey({"q": {(1,)}}, hash(key_a)), lambda: "x") == "a"
    assert lru.get_or_build(ContentKey({"q": {(2**61,)}}, hash(key_b)), lambda: "x") == "b"


def test_hot_entry_survives_fingerprint_collision_eviction():
    """A hot entry must not be evicted because a cold key sharing its hash
    is old: recency is per entry, so the never-touched ``b`` goes."""
    lru: LruMap[ContentKey, str] = LruMap(2)
    a, b, c = colliding_key(1), colliding_key(2), colliding_key(3, content_hash=9)
    lru.get_or_build(a, lambda: "a")
    lru.get_or_build(b, lambda: "b")  # same hash: forced collision
    assert lru.get_or_build(a, lambda: "rebuilt") == "a"  # a is now hot
    lru.get_or_build(c, lambda: "c")  # over capacity: must evict the LRU entry (b)
    assert len(lru) == 2
    assert cached(lru, colliding_key(1))
    assert cached(lru, colliding_key(3, content_hash=9))
    assert not cached(lru, colliding_key(2))


def test_cold_entry_is_not_kept_alive_by_hot_bucket_mate():
    """The reverse unfairness: a cold entry must age out even when it shares
    its hash with a hot one."""
    lru: LruMap[ContentKey, str] = LruMap(2)
    cold, hot, fresh = colliding_key(1, 3), colliding_key(2, 3), colliding_key(3, 4)
    lru.get_or_build(cold, lambda: "cold")
    lru.get_or_build(hot, lambda: "hot")
    for _ in range(5):
        assert lru.get_or_build(hot, lambda: "rebuilt") == "hot"
    lru.get_or_build(fresh, lambda: "fresh")
    assert cached(lru, colliding_key(2, 3))
    assert cached(lru, colliding_key(3, 4))
    assert not cached(lru, colliding_key(1, 3))


def test_eviction_is_globally_least_recently_used_across_buckets():
    lru: LruMap[ContentKey, str] = LruMap(3)
    for marker, name in ((1, "one"), (2, "two"), (3, "three")):
        lru.get_or_build(colliding_key(marker, marker), lambda name=name: name)
    assert lru.get_or_build(colliding_key(1, 1), lambda: "x") == "one"  # refresh 1
    lru.get_or_build(colliding_key(4, 4), lambda: "four")  # evicts 2, the global LRU
    assert cached(lru, colliding_key(1, 1))
    assert cached(lru, colliding_key(3, 3))
    assert not cached(lru, colliding_key(2, 2))


# ---------------------------------------------------------------------------
# Lock correctness under thread stress
# ---------------------------------------------------------------------------


def test_lru_map_counters_and_size_stay_consistent_under_threads():
    lru: LruMap[int, int] = LruMap(16)
    builds = []

    def build(key: int) -> int:
        builds.append(key)  # list.append is atomic under the GIL
        return key

    def work(index: int) -> None:
        for round_ in range(ROUNDS):
            key = (index * ROUNDS + round_) % 48
            assert lru.get_or_build(key, lambda: build(key)) == key

    run_threads(THREADS, work)
    info = lru.info()
    # Exactly one hit-or-miss increment per call, and a miss only per build.
    assert info.hits + info.misses == THREADS * ROUNDS
    assert info.misses == len(builds)
    assert info.size == len(lru) <= lru.capacity


def test_lru_map_concurrent_eviction_never_corrupts_structure():
    lru: LruMap[tuple, int] = LruMap(4)

    def work(index: int) -> None:
        for round_ in range(ROUNDS):
            lru.get_or_build((index, round_), lambda: round_)
            lru.get_or_build((index, round_ - 1), lambda: round_ - 1)

    run_threads(THREADS, work)
    assert len(lru) <= 4
    # The structure is still a functional LRU afterwards.
    assert lru.get_or_build(("probe",), lambda: 42) == 42
    assert cached(lru, ("probe",))


def test_fixpoint_cache_counts_every_lookup_under_threads():
    engine = SemiNaiveEngine(
        parse_program("p(X, Y) :- edge(X, Y)."), options=EngineOptions(cache_size=4)
    )
    databases = [{"edge": {(i, i + 1), (i, i + 2)}} for i in range(6)]

    def work(index: int) -> None:
        for round_ in range(ROUNDS // 4):
            database = databases[(index + round_) % len(databases)]
            # Verified hits: every result matches its database exactly.
            assert engine.query(database, "p") == database["edge"]

    run_threads(THREADS, work)
    info = engine.fixpoint_cache_info()
    assert info.hits + info.misses == THREADS * (ROUNDS // 4)
    assert info.size <= info.capacity == 4


def test_colliding_keys_under_concurrent_builds_keep_len_within_capacity():
    lru: LruMap[ContentKey, int] = LruMap(8)

    def work(index: int) -> None:
        for round_ in range(ROUNDS):
            marker = index * ROUNDS + round_
            # Five hash values for 3200 keys: constant collisions.
            key = colliding_key(marker, content_hash=round_ % 5)
            assert lru.get_or_build(key, lambda: marker) == marker

    run_threads(THREADS, work)
    assert len(lru) == 8
    assert lru.info().misses == THREADS * ROUNDS  # every key was distinct


# ---------------------------------------------------------------------------
# Single-flight builds
# ---------------------------------------------------------------------------


def test_single_flight_builds_exactly_once_per_key():
    lru: LruMap[str, object] = LruMap(8)
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
        value = lru.get_or_build("key", build)
        with lock:
            results.append(value)

    run_threads(THREADS, work)
    assert len(builds) == 1, "concurrent misses must share one build"
    assert len(set(map(id, results))) == 1, "every caller got the one instance"
    assert lru.get_or_build("key", build) is results[0]
    info = lru.info()
    assert info.misses == len(builds) == 1
    assert info.hits == THREADS


def test_single_flight_failed_build_wakes_waiters_and_allows_retry():
    lru: LruMap[str, object] = LruMap(8)
    attempts = []

    def build() -> object:
        attempts.append(1)
        if len(attempts) == 1:
            time.sleep(0.05)  # keep the first build in flight while others queue
            raise RuntimeError("first build fails")
        return "built"

    outcomes = []
    lock = threading.Lock()

    def work(index: int) -> None:
        try:
            value = lru.get_or_build("key", build)
        except RuntimeError as error:
            with lock:
                outcomes.append(error)
        else:
            with lock:
                outcomes.append(value)

    run_threads(4, work)
    assert len(outcomes) == 4
    assert sum(isinstance(outcome, RuntimeError) for outcome in outcomes) == 1
    assert outcomes.count("built") == 3
    assert len(attempts) == 2 == lru.info().misses
    # The key is not wedged: a later caller gets the memoised value.
    assert lru.get_or_build("key", build) == "built"


def test_get_or_build_failed_build_leaves_the_key_retryable():
    lru: LruMap[str, str] = LruMap(8)

    def failing() -> str:
        raise RuntimeError("build fails")

    with pytest.raises(RuntimeError):
        lru.get_or_build("key", failing)
    assert len(lru) == 0
    # The key is free again: the next caller builds and stores normally.
    assert lru.get_or_build("key", lambda: "built") == "built"
    assert cached(lru, "key")
    assert lru.info().misses == 2  # both builds, the failed one included


def test_a_cached_none_is_a_hit():
    lru: LruMap[str, None] = LruMap(8)
    builds = []
    for _ in range(3):
        assert lru.get_or_build("key", lambda: builds.append(1)) is None
    assert len(builds) == 1
    info = lru.info()
    assert (info.hits, info.misses, info.size) == (2, 1, 1)


def test_cache_capacity_validation_still_raises():
    with pytest.raises(ValueError):
        LruMap(0)


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
