"""Unit tests for the columnar storage layer (repro/datalog/columns.py).

Covers the row-interning container contract, lazy index materialisation
with batch catch-up maintenance, indexes partitioned by arity, full-key
composite keys, delta windows as row-id range slices, the database surface the
engine and the compiled plans use, and the storage counters surfaced
through ``engine_info()`` at both the engine and the
:class:`repro.api.Session` level.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.datalog import (
    ColumnarDatabase,
    ColumnarRelation,
    SemiNaiveEngine,
    StorageStats,
    aggregate_engine_info,
    parse_program,
)
from repro.datalog.columns import _EMPTY_COLUMNAR
from tests.datalog.introspection import index_count

REACH = """
reach(Y) :- source(X), edge(X, Y).
reach(Y) :- reach(X), edge(X, Y).
"""


# ---------------------------------------------------------------------------
# ColumnarRelation: interning, container protocol, lazy indexes
# ---------------------------------------------------------------------------


def test_relation_interns_rows_in_insertion_order():
    relation = ColumnarRelation([(1, 2), (2, 3)])
    assert relation.add((3, 4)) is True
    assert relation.add((1, 2)) is False  # duplicate: interned once
    assert list(relation) == [(1, 2), (2, 3), (3, 4)]
    assert len(relation) == 3
    assert (2, 3) in relation
    assert (9, 9) not in relation
    assert bool(relation)
    assert not bool(ColumnarRelation())


def test_add_batch_counts_only_new_rows():
    relation = ColumnarRelation([(1, 2)])
    added = relation.add_batch([(1, 2), (2, 3), (2, 3), (3, 4)])
    assert added == 2
    assert len(relation) == 3


def test_postings_materialise_lazily_and_catch_up_after_appends():
    relation = ColumnarRelation([(1, 2), (2, 3), (1, 9)])
    assert index_count(relation) == 0  # nothing probed yet
    index = relation.index((0,), 2)
    assert set(index[1]) == {(1, 2), (1, 9)}
    assert index_count(relation) == 1
    # Appends touch no index; the next index() call folds the new rows in.
    relation.add((1, 7))
    assert set(index[1]) == {(1, 2), (1, 9)}
    assert relation.index((0,), 2) is index
    assert set(index[1]) == {(1, 2), (1, 9), (1, 7)}
    assert index.get(42, ()) == ()


def test_buckets_catch_up_after_add_batch():
    relation = ColumnarRelation([(1, 2)])
    single = relation.index((0,), 2)
    composite = relation.index((0, 1), 2)
    relation.add_batch([(1, 3), (2, 2), (1, 3)])
    relation.add((1, 4))
    assert relation.index((0,), 2)[1] == [(1, 2), (1, 3), (1, 4)]
    assert relation.index((0, 1), 2)[(1, 3)] == [(1, 3)]
    assert single[2] == [(2, 2)] and composite[(2, 2)] == [(2, 2)]
    assert index_count(relation) == 2


def test_index_on_empty_relation_is_empty_and_materialises_nothing():
    relation = ColumnarRelation()
    assert relation.index((0,), 1).get("x", ()) == ()
    assert relation.index((0, 1), 2).get(("x", "y"), ()) == ()
    assert len(relation.index((0,), 1)) == 0
    assert index_count(relation) == 0
    # The empty answer is read-only: nobody can fill it in for everyone.
    with pytest.raises(TypeError):
        relation.index((0,), 1)["x"] = [("x",)]


def test_full_key_mode_probes_composite_index():
    relation = ColumnarRelation([(1, 2, 3), (1, 2, 4), (2, 2, 3)])
    assert set(relation.index((0, 1), 3)[(1, 2)]) == {(1, 2, 3), (1, 2, 4)}
    relation.add((1, 2, 9))
    assert set(relation.index((0, 1), 3)[(1, 2)]) == {(1, 2, 3), (1, 2, 4), (1, 2, 9)}
    assert relation.index((0, 1), 3).get((7, 2), ()) == ()
    assert index_count(relation) == 1  # one composite, no single-position index
    # A scan step iterates the row array itself: no index is built.
    assert list(relation) == relation.rows
    assert index_count(relation) == 1


def test_composite_keys_are_tuples_and_single_keys_bare_values():
    relation = ColumnarRelation([(1, 2, 3), (4, 5, 6)])
    assert set(relation.index((0, 2), 3)) == {(1, 3), (4, 6)}
    assert set(relation.index((1,), 3)) == {2, 5}


def test_probe_skips_rows_of_smaller_arity():
    relation = ColumnarRelation([(1,), (1, 2)])
    assert set(relation.index((1,), 2)[2]) == {(1, 2)}
    assert set(relation.index((0,), 2)[1]) == {(1, 2)}
    assert set(relation.index((0,), 1)[1]) == {(1,)}


def test_rows_of_a_neighbouring_arity_never_reach_a_bucket():
    relation = ColumnarRelation([(1,), (1, 2), (1, 2, 3), (1, 3, 3, 3)])
    for arity in (1, 2, 3, 4):
        index = relation.index((0,), arity)
        assert list(index) == [1]
        assert all(len(fact) == arity for fact in index[1])
    relation.add_batch([(1, 9), (1, 9, 9)])
    assert relation.index((0,), 2)[1] == [(1, 2), (1, 9)]
    assert relation.index((0, 1), 3)[(1, 9)] == [(1, 9, 9)]
    assert relation.index((0, 1), 3).get((1, 9, 9), ()) == ()


def test_ensure_index_materialises_the_advised_access_path():
    relation = ColumnarRelation([(1, 2)])
    relation.index((0, 1), 2)
    assert index_count(relation) == 1  # one composite
    relation.index((1,), 2)
    assert index_count(relation) == 2  # plus one single-position index
    relation.index((1,), 3)
    assert index_count(relation) == 3  # the arity is part of the identity
    relation.index((1,), 2)
    assert index_count(relation) == 3  # asking again builds nothing


# ---------------------------------------------------------------------------
# ColumnarWindow: row-id range deltas
# ---------------------------------------------------------------------------


def test_window_is_a_range_slice_over_the_row_array():
    database = ColumnarDatabase({"e": set()})
    relation = database.relation("e")
    for fact in [(1, 2), (2, 3), (3, 4), (4, 5)]:
        relation.add(fact)
    window = database.window("e", 1, 3)
    assert len(window) == 2
    assert list(window) == [(2, 3), (3, 4)]
    assert bool(window)
    assert window.probe1(0, 3) == [(3, 4)]
    assert window.probe1(0, 1) == []  # row 0 is outside the window
    assert window.probe((0, 1), (2, 3)) == [(2, 3)]
    assert list(window.probe((), ())) == [(2, 3), (3, 4)]


def test_window_lookup_answers_only_its_own_predicate():
    database = ColumnarDatabase({"e": {(1, 2)}})
    window = database.window("e", 0, 1)
    assert window.lookup("e") is window
    other = window.lookup("f")
    assert len(other) == 0
    window.lo, window.hi = 0, 0
    assert not bool(window)


# ---------------------------------------------------------------------------
# ColumnarDatabase: the surface the engine and the plans use
# ---------------------------------------------------------------------------


def test_database_surface_answers_membership_and_appends():
    database = ColumnarDatabase({"e": {(1, 2), (2, 3)}})
    assert database.row_count("e") == 2
    assert database.row_count("missing") == 0
    assert database.contains_fact("e", (1, 2))
    assert not database.contains_fact("e", (9, 9))
    assert not database.contains_fact("missing", (1, 2))
    assert "e" in database
    assert "missing" not in database
    assert database.relation("d").add(("x",)) is True
    assert database.relation("d").add(("x",)) is False
    assert database.add_batch("d", [("x",), ("y",)]) == 1
    assert database.row_count("d") == 2


def test_lookup_miss_returns_shared_empty_without_creating_an_entry():
    database = ColumnarDatabase()
    missing = database.lookup("nope")
    assert len(missing) == 0
    assert "nope" not in database
    # The shared sentinel stays immutable even after probes.
    assert missing.index((0,), 2).get(1, ()) == ()
    assert index_count(missing) == 0


def test_a_fixpoint_probing_an_undefined_predicate_leaves_the_sentinel_empty():
    program = parse_program(
        """
        p(X) :- q(X), nowhere(X, Y).
        r(X, Z) :- q(X), r(X, Y), gone(Y, Z).
        r(X, X) :- q(X).
        """
    )
    result = SemiNaiveEngine(program).evaluate({"q": {(1,), (2,)}})
    assert "p" not in result and result["r"] == {(1, 1), (2, 2)}
    assert index_count(_EMPTY_COLUMNAR) == 0
    assert not _EMPTY_COLUMNAR.rows


def test_to_database_snapshots_plain_sets():
    database = ColumnarDatabase({"e": {(1, 2)}})
    database.relation("p").add((1,))
    snapshot = database.to_database()
    assert snapshot == {"e": {(1, 2)}, "p": {(1,)}}
    snapshot["e"].add((9, 9))
    assert not database.contains_fact("e", (9, 9))  # snapshot is a copy


def test_prune_empty_drops_only_still_empty_scratch_relations():
    database = ColumnarDatabase({"e": {(1, 2)}})
    database.relation("scratch")
    database.relation("kept").add((1,))
    database.prune_empty(["scratch", "kept", "never-created"])
    assert "scratch" not in database
    assert "kept" in database
    assert "e" in database


def test_shared_stats_count_interned_rows_across_relations():
    stats = StorageStats()
    database = ColumnarDatabase({"e": {(1, 2), (2, 3)}}, stats=stats)
    database.relation("p").add((1,))
    database.relation("p").add((1,))  # duplicate: not interned again
    assert stats.rows_interned == 3


# ---------------------------------------------------------------------------
# engine_info(): storage counters through the engine and the Session
# ---------------------------------------------------------------------------


def test_engine_info_counts_columnar_activity():
    program = parse_program(REACH)
    engine = SemiNaiveEngine(program)
    result = engine.evaluate({"edge": {(i, i + 1) for i in range(50)}, "source": {(0,)}})
    info = engine.engine_info()
    assert info.rows_interned >= 50 + len(result["reach"])
    assert info.delta_batches >= 49
    assert info.delta_rows >= 50
    assert info.max_delta_batch >= 1
    assert info.closure_compiles >= 1
    assert info.posting_intersections == 0


def test_session_engine_info_aggregates_across_evaluators():
    session = Session()
    baseline = session.engine_info()
    assert baseline.rows_interned == 0
    session.query(REACH, {"edge": {(1, 2), (2, 3)}, "source": {(1,)}}, backend="semi-naive")
    info = session.engine_info()
    assert info.rows_interned > 0
    assert info.delta_batches >= 1
    assert info.closure_compiles >= 1


def test_aggregate_engine_info_sums_counters_and_maxes_batches():
    program = parse_program(REACH)
    first = SemiNaiveEngine(program)
    second = SemiNaiveEngine(program)
    first.evaluate({"edge": {(1, 2)}, "source": {(1,)}})
    second.evaluate({"edge": {(i, i + 1) for i in range(10)}, "source": {(0,)}})
    infos = [first.engine_info(), second.engine_info()]
    merged = aggregate_engine_info(infos)
    assert merged.rows_interned == sum(i.rows_interned for i in infos)
    assert merged.delta_batches == sum(i.delta_batches for i in infos)
    assert merged.max_delta_batch == max(i.max_delta_batch for i in infos)
