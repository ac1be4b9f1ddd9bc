"""Relation indexes and the indexed join, checked against the oracle.

The index tests read :class:`~repro.datalog.columns.ColumnarRelation`'s
lazily built ``index(positions, arity)`` access paths; the join tests compare the engine with the
naive nested-loop reference evaluator of ``tests/datalog/oracle.py``.
"""

from __future__ import annotations

import pytest

from repro.datalog import (
    ColumnarDatabase,
    ColumnarRelation,
    SemiNaiveEngine,
    parse_program,
)
from repro.datalog.engine import EvaluationError
from tests.datalog import oracle
from tests.datalog.introspection import index_count

# ---------------------------------------------------------------------------
# Relation indexes
# ---------------------------------------------------------------------------


def test_probe_on_bound_positions():
    index = ColumnarRelation({(1, "a"), (1, "b"), (2, "a")})
    assert set(index.index((0,), 2)[1]) == {(1, "a"), (1, "b")}
    assert set(index.index((1,), 2)["a"]) == {(1, "a"), (2, "a")}
    assert set(index.index((0, 1), 2)[(2, "a")]) == {(2, "a")}
    assert list(index.index((0,), 2).get(99, ())) == []


def test_probe_without_positions_is_full_scan():
    facts = {(1,), (2,)}
    index = ColumnarRelation(facts)
    # A step with no bound position iterates the relation itself.
    assert set(index) == facts
    assert index_count(index) == 0


def test_add_maintains_materialised_indexes_incrementally():
    index = ColumnarRelation({(1, "a")})
    assert set(index.index((0,), 2)[1]) == {(1, "a")}  # materialises the index
    assert index.add((1, "b"))
    assert not index.add((1, "b"))  # duplicate insert is a no-op
    assert set(index.index((0,), 2)[1]) == {(1, "a"), (1, "b")}
    assert index_count(index) == 1


def test_mixed_arity_facts_do_not_break_indexes():
    index = ColumnarRelation({(1, "a"), (7,)})
    assert set(index.index((1,), 2)["a"]) == {(1, "a")}
    index.add((8,))
    assert set(index.index((1,), 2)["a"]) == {(1, "a")}
    assert set(index.index((0,), 1)) == {7, 8}


def test_indexed_database_roundtrip():
    database = {"e": {(1, 2), (2, 3)}, "f": {(5,)}}
    indexed = ColumnarDatabase(database)
    assert indexed.row_count("e") == 2
    assert indexed.contains_fact("f", (5,))
    assert not indexed.contains_fact("missing", (1,))
    assert indexed.relation("e").add((3, 4))
    assert indexed.to_database() == {"e": {(1, 2), (2, 3), (3, 4)}, "f": {(5,)}}


# ---------------------------------------------------------------------------
# Indexed join semantics
# ---------------------------------------------------------------------------


class _Oracle:
    """The reference evaluator behind the engine's ``evaluate``/``query``."""

    def __init__(self, program):
        self.program = program

    def evaluate(self, database):
        return oracle.evaluate(self.program, database)

    def query(self, database, predicate):
        return self.evaluate(database).get(predicate, set())


def _both_engines(program_text):
    program = parse_program(program_text)
    return SemiNaiveEngine(program), _Oracle(program)


def test_transitive_closure_same_result():
    indexed, nested = _both_engines(
        """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        """
    )
    database = {"edge": {(i, i + 1) for i in range(30)}}
    assert indexed.evaluate(database) == nested.evaluate(database)


def test_hoisted_builtin_prunes_mid_join():
    # The builtin's variables are bound after the first literal; the engine
    # applies it before joining the second literal, the oracle only at the
    # end — the result must be identical.
    indexed, nested = _both_engines(
        "pair(X, Y) :- item(X, P), lt(P, 10), link(X, Y)."
    )
    database = {
        "item": {("a", 5), ("b", 20), ("c", 9)},
        "link": {("a", 1), ("b", 2), ("c", 3)},
    }
    expected = {("a", 1), ("c", 3)}
    assert indexed.query(database, "pair") == expected
    assert nested.query(database, "pair") == expected


def test_hoisted_negation_agrees_with_filter_at_end():
    indexed, nested = _both_engines(
        """
        ok(X) :- node(X), not banned(X).
        good(X, Y) :- node(X), not banned(X), link(X, Y).
        """
    )
    database = {
        "node": {(1,), (2,), (3,)},
        "banned": {(2,)},
        "link": {(1, 10), (2, 20), (3, 30)},
    }
    assert indexed.evaluate(database) == nested.evaluate(database)
    assert indexed.query(database, "good") == {(1, 10), (3, 30)}


def test_repeated_variable_in_atom():
    indexed, nested = _both_engines("loop(X) :- edge(X, X).")
    database = {"edge": {(1, 1), (1, 2), (3, 3)}}
    assert indexed.query(database, "loop") == {(1,), (3,)}
    assert nested.query(database, "loop") == {(1,), (3,)}


def test_constants_probe_the_index():
    indexed, nested = _both_engines('gold(X) :- labelled(X, "gold").')
    database = {"labelled": {(1, "gold"), (2, "silver"), (3, "gold")}}
    assert indexed.query(database, "gold") == {(1,), (3,)}
    assert nested.query(database, "gold") == {(1,), (3,)}


def test_unbound_builtin_variable_raises_on_both_paths():
    # Safety does not cover variables that occur only in builtins; grounding
    # them must surface an EvaluationError rather than silently dropping.
    for engine in _both_engines("p(X) :- q(X), lt(Y, 10)."):
        with pytest.raises(EvaluationError):
            engine.evaluate({"q": {(1,)}})


def test_cartesian_product_rule():
    indexed, nested = _both_engines("pair(X, Y) :- left(X), right(Y).")
    database = {"left": {(1,), (2,)}, "right": {("a",), ("b",)}}
    expected = {(1, "a"), (1, "b"), (2, "a"), (2, "b")}
    assert indexed.query(database, "pair") == expected
    assert nested.query(database, "pair") == expected


def test_add_batch_dedups_within_the_batch():
    relation = ColumnarRelation({(9, 9)})
    # Materialise an index first so batch insertion must maintain it.
    assert relation.index((0,), 2)[9] == [(9, 9)]
    added = relation.add_batch([(1, 2), (1, 2), (9, 9), (3, 4), (1, 2)])
    assert added == 2
    assert len(relation) == 3
    # Each fact appears in the probed bucket exactly once.
    index = relation.index((0,), 2)
    assert index[1] == [(1, 2)]
    assert index[3] == [(3, 4)]
    assert index[9] == [(9, 9)]
