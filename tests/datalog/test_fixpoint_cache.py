"""Tests for the fixpoint LRU (an exact-key LruMap) and its engine wiring."""

from __future__ import annotations

import pytest

from repro.datalog import (
    ContentKey,
    EngineOptions,
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
# Fixpoint LRU unit behaviour
# ---------------------------------------------------------------------------


def test_lru_eviction_order():
    engine, calls = _counting_engine(cache_size=2)
    databases = [{"q": {(i,)}} for i in range(3)]
    results = [engine.fixpoint(database) for database in databases]
    assert len(calls) == 3
    # Capacity 2: database 0 (least recently used) was evicted.
    assert engine.fixpoint(databases[1]) is results[1]
    assert engine.fixpoint(databases[2]) is results[2]
    assert len(calls) == 3
    assert engine.fixpoint(databases[0]) is not results[0]
    assert len(calls) == 4


def test_lru_hit_refreshes_recency():
    engine, calls = _counting_engine(cache_size=2)
    a, b, c = {"q": {(1,)}}, {"q": {(2,)}}, {"q": {(3,)}}
    result_a = engine.fixpoint(a)
    engine.fixpoint(b)
    assert engine.fixpoint(a) is result_a  # touch a: b becomes the LRU entry
    engine.fixpoint(c)
    assert engine.fixpoint(a) is result_a  # a kept, b evicted
    assert len(calls) == 3
    engine.fixpoint(b)
    assert len(calls) == 4


def test_exact_invalidation_on_in_place_fact_swap():
    engine, calls = _counting_engine(cache_size=2)
    database = {"q": {(1,), (2,)}}
    first = engine.fixpoint(database)
    # Swapping one fact for another keeps sizes identical but must miss.
    database["q"].discard((2,))
    database["q"].add((3,))
    assert engine.fixpoint(database) is not first
    assert engine.query(database, "p") == {(1,), (3,)}
    assert len(calls) == 2


def test_hit_across_equal_but_distinct_databases():
    engine, calls = _counting_engine(cache_size=2)
    original = {"q": {(1,), (2,)}, "r": set()}
    shared = engine.fixpoint(original)
    rebuild = {"q": {(2,), (1,)}, "r": set()}
    assert rebuild is not original
    assert engine.fixpoint(rebuild) is shared
    # An extra empty relation changes the fixpoint shape: must miss.
    assert engine.fixpoint({"q": {(1,), (2,)}, "r": set(), "s": set()}) is not shared
    assert len(calls) == 2


def test_store_refreshes_exact_duplicates_instead_of_inflating():
    engine, _ = _counting_engine(cache_size=2)
    database = {"q": {(1,)}}
    for _ in range(3):
        engine.fixpoint(database)
    assert engine.fixpoint_cache_info().size == 1  # one entry, not three

    other = {"q": {(2,)}}
    other_result = engine.fixpoint(other)
    # Repeated queries of one hot document must not evict the other one.
    for _ in range(5):
        engine.fixpoint({"q": {(1,)}})
    assert engine.fixpoint_cache_info().size == 2
    assert engine.fixpoint(other) is other_result


def test_store_dedup_is_exact_not_fingerprint_based():
    # Hash-equal but different databases still get their own entries.
    collider = 2**61
    assert hash((1,)) == hash((collider,))
    engine, calls = _counting_engine(cache_size=4)
    a = {"q": {(1,)}}
    b = {"q": {(collider,)}}
    assert database_content_hash(a) == database_content_hash(b)
    result_a, result_b = engine.fixpoint(a), engine.fixpoint(b)
    assert engine.fixpoint_cache_info().size == 2
    assert engine.fixpoint(a) is result_a and engine.fixpoint(b) is result_b
    assert result_a.query("p") == {(1,)} and result_b.query("p") == {(collider,)}
    assert len(calls) == 2


def test_content_hash_is_order_independent_and_shape_sensitive():
    a = {"q": {(1,), (2,), (3,)}, "r": {(4,)}}
    b = {"r": {(4,)}, "q": {(3,), (2,), (1,)}}
    assert database_content_hash(a) == database_content_hash(b)
    assert database_content_hash(a) != database_content_hash({"q": {(1,), (2,)}})
    assert database_content_hash({"q": set()}) != database_content_hash({})


def test_content_key_hashes_once_and_compares_exactly():
    class CountingTuple(tuple):
        hashes = 0

        def __hash__(self):
            CountingTuple.hashes += 1
            return super().__hash__()

    fingerprint = CountingTuple((("doc", -1), ("a", 0)))
    key = ContentKey(fingerprint)
    lru: LruMap[ContentKey, str] = LruMap(2)
    for _ in range(3):
        assert lru.get_or_build(key, lambda: "x") == "x"
    assert CountingTuple.hashes == 1
    assert ContentKey((("doc", -1), ("a", 0))) == key
    assert ContentKey((("doc", -1), ("b", 0))) != key
    assert ContentKey({"q": frozenset({(1,)})}, 5) == ContentKey({"q": {(1,)}}, 5)


def test_cache_info_counters():
    engine, _ = _counting_engine(cache_size=4)
    database = {"q": {(1,)}}
    engine.fixpoint(database)  # miss
    engine.fixpoint(database)  # hit
    engine.fixpoint({"q": {(2,)}})  # miss
    info = engine.fixpoint_cache_info()
    assert (info.hits, info.misses, info.size, info.capacity) == (1, 2, 2, 4)
    assert info.hit_rate == pytest.approx(1 / 3)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        EngineOptions(cache_size=0)
    with pytest.raises(ValueError):
        LruMap(capacity=0)


def test_lru_map_basics():
    lru = LruMap(capacity=2)
    lru.get_or_build("a", lambda: 1)
    lru.get_or_build("b", lambda: 2)
    assert lru.get_or_build("a", lambda: -1) == 1  # refreshes a
    lru.get_or_build("c", lambda: 3)
    assert lru.get_or_build("a", lambda: -1) == 1
    assert lru.get_or_build("c", lambda: -1) == 3
    assert lru.values() == [1, 3]  # LRU -> MRU: b was evicted
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
