"""Tests for the fixpoint LRU (repro/datalog/cache.py) and its engine wiring."""

from __future__ import annotations

import pytest

from repro.datalog import (
    EngineOptions,
    FixpointCache,
    LruMap,
    SemiNaiveEngine,
    database_content_hash,
    parse_program,
    tree_database,
)
from repro.tree import tree


def _counting_engine(text="p(X) :- q(X).", cache_size=8):
    engine = SemiNaiveEngine(parse_program(text), options=EngineOptions(cache_size=cache_size))
    calls = []
    original = engine._run
    engine._run = lambda facts: calls.append(1) or original(facts)
    return engine, calls


# ---------------------------------------------------------------------------
# FixpointCache unit behaviour
# ---------------------------------------------------------------------------


def test_lru_eviction_order():
    cache = FixpointCache(capacity=2)
    databases = [{"q": {(i,)}} for i in range(3)]
    for index, database in enumerate(databases):
        fingerprint, result = cache.lookup(database)
        assert result is None
        cache.store(fingerprint, database, f"result-{index}")
    # Capacity 2: database 0 (least recently used) was evicted.
    assert cache.lookup(databases[0])[1] is None
    assert cache.lookup(databases[1])[1] == "result-1"
    assert cache.lookup(databases[2])[1] == "result-2"


def test_lru_hit_refreshes_recency():
    cache = FixpointCache(capacity=2)
    a, b, c = {"q": {(1,)}}, {"q": {(2,)}}, {"q": {(3,)}}
    for name, database in (("a", a), ("b", b)):
        fingerprint, _ = cache.lookup(database)
        cache.store(fingerprint, database, name)
    assert cache.lookup(a)[1] == "a"  # touch a: b becomes the LRU entry
    fingerprint, _ = cache.lookup(c)
    cache.store(fingerprint, c, "c")
    assert cache.lookup(b)[1] is None  # b evicted, not a
    assert cache.lookup(a)[1] == "a"


def test_exact_invalidation_on_in_place_fact_swap():
    cache = FixpointCache(capacity=2)
    database = {"q": {(1,), (2,)}}
    fingerprint, _ = cache.lookup(database)
    cache.store(fingerprint, database, "first")
    # Swapping one fact for another keeps sizes identical but must miss.
    database["q"].discard((2,))
    database["q"].add((3,))
    assert cache.lookup(database)[1] is None


def test_hit_across_equal_but_distinct_databases():
    cache = FixpointCache(capacity=2)
    original = {"q": {(1,), (2,)}, "r": set()}
    fingerprint, _ = cache.lookup(original)
    cache.store(fingerprint, original, "shared")
    rebuild = {"q": {(2,), (1,)}, "r": set()}
    assert rebuild is not original
    assert cache.lookup(rebuild)[1] == "shared"
    # An extra empty relation changes the fixpoint shape: must miss.
    assert cache.lookup({"q": {(1,), (2,)}, "r": set(), "s": set()})[1] is None


def test_store_refreshes_exact_duplicates_instead_of_inflating():
    cache = FixpointCache(capacity=2)
    database = {"q": {(1,)}}
    fingerprint, _ = cache.lookup(database)
    cache.store(fingerprint, database, "first")
    cache.store(fingerprint, database, "second")
    assert len(cache) == 1  # refreshed in place, not appended
    assert cache.lookup(database)[1] == "second"

    other = {"q": {(2,)}}
    other_fingerprint, _ = cache.lookup(other)
    cache.store(other_fingerprint, other, "other")
    # Repeated stores of one hot document must not evict the other one.
    for _ in range(5):
        cache.store(fingerprint, database, "again")
    assert len(cache) == 2
    assert cache.lookup(other)[1] == "other"
    assert cache.lookup(database)[1] == "again"


def test_store_dedup_is_exact_not_fingerprint_based():
    # Hash-equal but different databases still get their own entries.
    collider = 2**61
    assert hash((1,)) == hash((collider,))
    cache = FixpointCache(capacity=4)
    a = {"q": {(1,)}}
    b = {"q": {(collider,)}}
    fingerprint_a, _ = cache.lookup(a)
    fingerprint_b, _ = cache.lookup(b)
    assert fingerprint_a == fingerprint_b
    cache.store(fingerprint_a, a, "a")
    cache.store(fingerprint_b, b, "b")
    assert len(cache) == 2
    assert cache.lookup(a)[1] == "a" and cache.lookup(b)[1] == "b"


def test_content_hash_is_order_independent_and_shape_sensitive():
    a = {"q": {(1,), (2,), (3,)}, "r": {(4,)}}
    b = {"r": {(4,)}, "q": {(3,), (2,), (1,)}}
    assert database_content_hash(a) == database_content_hash(b)
    assert database_content_hash(a) != database_content_hash({"q": {(1,), (2,)}})
    assert database_content_hash({"q": set()}) != database_content_hash({})


def test_cache_info_counters():
    cache = FixpointCache(capacity=4)
    database = {"q": {(1,)}}
    fingerprint, _ = cache.lookup(database)  # miss
    cache.store(fingerprint, database, "x")
    cache.lookup(database)  # hit
    cache.lookup({"q": {(2,)}})  # miss
    info = cache.info()
    assert (info.hits, info.misses, info.size, info.capacity) == (1, 2, 1, 4)
    assert info.hit_rate == pytest.approx(1 / 3)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FixpointCache(capacity=0)
    with pytest.raises(ValueError):
        LruMap(capacity=0)


def test_lru_map_basics():
    lru = LruMap(capacity=2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refreshes a
    lru.put("c", 3)
    assert lru.get("b") is None  # b was the LRU entry
    assert lru.get("a") == 1 and lru.get("c") == 3
    info = lru.info()
    assert info.size == 2 and info.capacity == 2


# ---------------------------------------------------------------------------
# Engine wiring
# ---------------------------------------------------------------------------


def test_engine_serves_working_set_without_thrashing():
    # The PR-1 single-slot cache thrashed on alternating documents; the LRU
    # must evaluate each database of a small working set exactly once.
    engine, calls = _counting_engine(cache_size=4)
    working_set = [{"q": {(i,)}} for i in range(4)]
    for _ in range(5):
        for database in working_set:
            engine.query(database, "p")
    assert len(calls) == 4
    info = engine.fixpoint_cache_info()
    assert info.hits == 16 and info.misses == 4
    assert info.hit_rate >= 0.8


def test_engine_cache_capacity_evicts_lru():
    engine, calls = _counting_engine(cache_size=2)
    a, b, c = {"q": {(1,)}}, {"q": {(2,)}}, {"q": {(3,)}}
    engine.query(a, "p")
    engine.query(b, "p")
    engine.query(c, "p")  # evicts a
    engine.query(a, "p")  # re-evaluates
    assert len(calls) == 4
    engine.query(c, "p")  # still resident
    assert len(calls) == 4


def test_engine_observes_in_place_mutation_of_same_object():
    engine, calls = _counting_engine()
    database = {"q": {(1,), (2,)}}
    assert engine.query(database, "p") == {(1,), (2,)}
    assert engine.query(database, "p") == {(1,), (2,)}
    assert len(calls) == 1
    # In-place swap through the SAME object must invalidate.
    database["q"].discard((1,))
    database["q"].add((7,))
    assert engine.query(database, "p") == {(2,), (7,)}
    assert len(calls) == 2


def test_engine_observes_hash_colliding_in_place_mutation():
    # CPython hashes collide easily: hash(1) == hash(2**61).  Swapping a
    # fact for a hash-equal one keeps the cheap content hash unchanged, so
    # only the exact snapshot verification can (and must) catch it.
    collider = 2**61
    assert hash((1,)) == hash((collider,))
    engine, calls = _counting_engine()
    database = {"q": {(1,)}}
    assert engine.query(database, "p") == {(1,)}
    database["q"].discard((1,))
    database["q"].add((collider,))
    assert engine.query(database, "p") == {(collider,)}
    assert len(calls) == 2


def test_engine_clear_fixpoint_cache():
    engine, calls = _counting_engine()
    database = {"q": {(1,)}}
    engine.query(database, "p")
    engine.clear_fixpoint_cache()
    engine.query(database, "p")
    assert len(calls) == 2
    assert engine.fixpoint_cache_info().misses == 1  # counters reset too


# ---------------------------------------------------------------------------
# Documents: keyed by the exact tree fingerprint
# ---------------------------------------------------------------------------


def _page():
    return tree(("doc", ("a", ("b",)), ("a",)))


def test_equal_but_distinct_documents_hit_one_entry():
    engine, calls = _counting_engine("p(X) :- label_a(X), leaf(X).")
    first, second = _page(), _page()
    assert first is not second
    result = engine.fixpoint(first)
    assert engine.fixpoint(second) is result
    assert engine.query(second, "p") == {(3,)}
    assert len(calls) == 1
    info = engine.fixpoint_cache_info()
    assert (info.hits, info.misses, info.size) == (2, 1, 1)


def test_a_mutated_reindexed_document_misses():
    engine, calls = _counting_engine("p(X) :- label_a(X), leaf(X).")
    document = _page()
    assert engine.query(document, "p") == {(3,)}
    document.root.children[0].children[0].detach()
    document.reindex()
    assert engine.query(document, "p") == {(1,), (2,)}
    assert len(calls) == 2
    # Relabelling keeps the shape but changes the fingerprint: a miss too.
    document.root.children[1].label = "c"
    document.reindex()
    assert engine.query(document, "p") == {(1,)}
    assert len(calls) == 3


def test_documents_and_databases_share_one_cache_without_aliasing():
    engine, calls = _counting_engine("p(X) :- leaf(X).", cache_size=4)
    document = _page()
    from_document = engine.fixpoint(document)
    from_database = engine.fixpoint(tree_database(document))
    assert from_database is not from_document
    assert from_database.query("p") == from_document.query("p")
    assert engine.fixpoint(document) is from_document
    assert engine.fixpoint(tree_database(document)) is from_database
    assert len(calls) == 2
    assert engine.fixpoint_cache_info().size == 2
