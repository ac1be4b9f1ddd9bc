"""The semi-naive engine's document path computes the dict path's fixpoint.

``SemiNaiveEngine.fixpoint(document)`` builds only the tau_ur relations the
program mentions, straight from the document's key, and builds any other
one when it is asked for.  The reference loads the whole signature as a
plain database, read off the nodes by the test-only
``tests/datalog/tree_oracle.py``.  Random programs — recursion,
stratified negation and comparison builtins, from the generators of
``test_indexed_join_equivalence`` over a tau_ur schema — on random trees
(the single node, chains and fans of ``test_monadic_ground_equivalence``)
must give the same fixpoint relation by relation, including the relations
the program never mentions and a label no node carries.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.datalog import SemiNaiveEngine
from tests.datalog.tree_oracle import tree_database
from tests.properties.test_indexed_join_equivalence import IDB_ORDER, programs
from tests.properties.test_monadic_ground_equivalence import documents

#: The EDB schema the programs read: part of tau_ur, so the relations left
#: out (label_b, lastchild) are never mentioned, plus an absent label.
TREE_ARITIES = {
    "label_a": 1,
    "label_c": 1,
    "label_zzz": 1,
    "leaf": 1,
    "root": 1,
    "firstsibling": 1,
    "lastsibling": 1,
    "child": 2,
    "firstchild": 2,
    "nextsibling": 2,
}
#: Constants are node ids, so builtins compare integers with integers.
NODE_IDS = st.integers(min_value=0, max_value=5)


@settings(max_examples=120, deadline=None)
@given(program=programs(TREE_ARITIES, NODE_IDS), document=documents)
def test_document_fixpoint_equals_the_tree_database_fixpoint(program, document):
    by_document = SemiNaiveEngine(program).fixpoint(document)
    by_database = SemiNaiveEngine(program).fixpoint(tree_database(document))
    assert by_document.predicates() == by_database.predicates()
    for predicate in sorted(by_database.predicates() | set(IDB_ORDER) | {"label_zzz"}):
        expected = by_database.query(predicate)
        assert by_document.count(predicate) == len(expected), predicate
        assert by_document.query(predicate) == expected, predicate
        assert (predicate in by_document) == (predicate in by_database), predicate
    assert by_document.facts() == by_database.facts()


@settings(max_examples=40, deadline=None)
@given(program=programs(TREE_ARITIES, NODE_IDS), document=documents)
def test_session_document_results_match_the_tree_database_results(program, document):
    session = Session()
    by_document = session.query(program, document, "semi-naive")
    by_database = session.query(program, tree_database(document), "semi-naive")
    assert by_document.predicates() == by_database.predicates()
    for predicate in sorted(by_database.predicates()):
        assert by_document.tuples(predicate) == by_database.tuples(predicate)
        assert by_document.count(predicate) == by_database.count(predicate)
