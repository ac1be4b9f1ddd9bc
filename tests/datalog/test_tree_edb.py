"""Tests for the tau_ur extensional database of documents.

The reference is ``tests/datalog/tree_oracle.py``, which reads every
relation off the node objects; the library derives them all from the
document key's two columns.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.datalog import (
    document_key,
    label_predicate,
    nodes_for_indexes,
    parse_program,
    query_program,
    tree_database,
    tree_signature,
)
from tests.datalog import tree_oracle
from tests.properties.test_monadic_ground_equivalence import documents


def test_label_predicate_name():
    assert label_predicate("td") == "label_td"


def test_tree_database_relations(figure1):
    database = tree_database(figure1)
    # Domain elements are preorder indexes: n1=0, n2=1, n3=2, n4=3, n5=4, n6=5
    assert database["root"] == {(0,)}
    assert database["leaf"] == {(1,), (3,), (4,), (5,)}
    assert database["firstchild"] == {(0, 1), (2, 3)}
    assert database["nextsibling"] == {(1, 2), (2, 5), (3, 4)}
    assert database["lastsibling"] == {(4,), (5,)}
    assert database["firstsibling"] == {(1,), (3,)}
    assert database["child"] == {(0, 1), (0, 2), (0, 5), (2, 3), (2, 4)}
    assert database["lastchild"] == {(0, 5), (2, 4)}
    assert database[label_predicate("n3")] == {(2,)}


@settings(max_examples=150, deadline=None)
@given(documents)
def test_the_key_derives_the_oracle_database(document):
    expected = tree_oracle.tree_database(document)
    assert tree_database(document) == expected
    assert tree_signature(document) == frozenset(expected)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_the_step_functions_are_the_oracle_relations_and_their_inverses(document):
    expected = tree_oracle.tree_database(document)
    steps = document_key(document).content.step_functions()
    n = len(document)
    graphs = [
        {(node, image) for node, image in enumerate(step) if image != n} for step in steps
    ]
    assert graphs[0] == {(node, node) for node in range(n)}
    for position, name in enumerate(("firstchild", "nextsibling", "lastchild"), start=1):
        assert graphs[position] == expected[name], name
        assert graphs[position + 3] == {(y, x) for x, y in expected[name]}, name


def test_tree_signature_contains_labels(figure1):
    signature = tree_signature(figure1)
    assert "label_n1" in signature
    assert "firstchild" in signature
    assert "child" in signature


def test_nodes_for_indexes_sorted(figure1):
    nodes = nodes_for_indexes(figure1, [(5,), (1,), 3])
    assert [node.label for node in nodes] == ["n2", "n4", "n6"]


def test_generic_engine_on_tree_database(simple_html):
    """Example 2.1 evaluated with the generic engine over the tree EDB."""
    program = parse_program(
        """
        italic(X) :- label_i(X).
        italic(X) :- italic(X0), firstchild(X0, X).
        italic(X) :- italic(X0), nextsibling(X0, X).
        """
    )
    database = tree_database(simple_html)
    selected = query_program(program, database, "italic")
    nodes = nodes_for_indexes(simple_html, selected)
    texts = {node.normalized_text() for node in nodes if node.label == "#text"}
    # Everything inside <i>free <b>shipping</b></i> is italic.
    assert "free" in texts
    assert "shipping" in texts
    assert not any("Prices include" in t for t in texts)
