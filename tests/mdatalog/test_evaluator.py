"""Tests for the O(|P|*|dom|) evaluator and its generic fallback."""

from __future__ import annotations

from repro.datalog import EngineOptions, tree_database
from repro.mdatalog import (
    InformationExtractionFunction,
    MonadicProgram,
    MonadicTreeEvaluator,
    extraction_functions,
    intersection,
    label_query,
    union,
)
from repro.tree import random_tree, tree
from tests.datalog import oracle

GENERIC = EngineOptions(force_generic=True)


def indexes(nodes):
    return {node.preorder_index for node in nodes}


def test_ground_pipeline_and_generic_agree_on_recursive_program():
    program = MonadicProgram.parse(
        """
        mark(X) :- label_b(X).
        mark(X) :- mark(X0), firstchild(X0, X).
        mark(X) :- mark(X0), nextsibling(X0, X).
        below_a(X) :- label_a(X0), firstchild(X0, X).
        both(X) :- mark(X), below_a(X).
        """,
    )
    fast = MonadicTreeEvaluator(program)
    slow = MonadicTreeEvaluator(program, options=GENERIC)
    assert fast.uses_ground_pipeline
    assert not slow.uses_ground_pipeline
    for seed in range(4):
        document = random_tree(150, labels=("a", "b", "c"), seed=seed)
        fast_result = fast.evaluate(document)
        slow_result = slow.evaluate(document)
        for predicate in program.query_predicates:
            assert indexes(fast_result[predicate]) == indexes(slow_result[predicate])


def test_negation_forces_generic_engine():
    program = MonadicProgram.parse(
        """
        plain(X) :- label_p(X), not emphasized(X).
        emphasized(X) :- label_i(X0), firstchild(X0, X).
        """,
        query_predicates=["plain"],
    )
    evaluator = MonadicTreeEvaluator(program)
    assert not evaluator.uses_ground_pipeline
    document = tree(("body", ("p",), ("i", ("p",)), ("p",)))
    selected = evaluator.select(document, "plain")
    labels_of_parents = {node.parent.label for node in selected}
    assert labels_of_parents == {"body"}
    assert len(selected) == 2


def test_query_predicate_results_are_in_document_order():
    program = MonadicProgram.parse("leafish(X) :- leaf(X).")
    document = tree(("r", ("a", ("b",)), ("c",), ("d", ("e",), ("f",))))
    nodes = MonadicTreeEvaluator(program).select(document, "leafish")
    assert [node.preorder_index for node in nodes] == sorted(
        node.preorder_index for node in nodes
    )


def test_lastchild_relation_supported():
    program = MonadicProgram.parse("last(X) :- label_r(X0), lastchild(X0, X).")
    document = tree(("r", ("a",), ("b",), ("c",)))
    selected = MonadicTreeEvaluator(program).select(document, "last")
    assert [node.label for node in selected] == ["c"]


def test_information_extraction_function_interface(figure1):
    program = MonadicProgram.parse(
        "leafnode(X) :- leaf(X). rootnode(X) :- root(X).",
    )
    functions = extraction_functions(program)
    assert set(functions) == {"leafnode", "rootnode"}
    leaf_query = functions["leafnode"]
    assert isinstance(leaf_query, InformationExtractionFunction)
    assert {n.label for n in leaf_query(figure1)} == {"n2", "n4", "n5", "n6"}
    assert functions["rootnode"].select_indexes(figure1) == {0}


def test_information_extraction_function_rejects_auxiliary():
    program = MonadicProgram.parse(
        "a(X) :- leaf(X). b(X) :- a(X).", query_predicates=["b"]
    )
    try:
        InformationExtractionFunction(program, "a")
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError for auxiliary predicate")


def test_union_intersection_queries(figure1):
    leaves = label_query("n4")
    others = label_query("n6")
    both = union("u", [leaves, others])
    assert {n.label for n in both(figure1)} == {"n4", "n6"}
    empty = intersection("i", [leaves, others])
    assert empty(figure1) == []
    same = intersection("s", [leaves, leaves])
    assert {n.label for n in same(figure1)} == {"n4"}


def test_query_agreement_helper(figure1):
    first = label_query("n4")
    second = label_query("n4")
    third = label_query("n5")
    assert first.agrees_with(second, figure1)
    assert not first.agrees_with(third, figure1)


def test_generic_path_matches_the_oracle():
    # The generic fallback must select exactly the nodes the reference
    # oracle derives over the same tree EDB.
    program = MonadicProgram.parse(
        """
        mark(X) :- label_b(X).
        mark(X) :- mark(X0), firstchild(X0, X).
        mark(X) :- mark(X0), nextsibling(X0, X).
        """,
    )
    document = random_tree(80, labels=("a", "b"), seed=11)
    evaluator = MonadicTreeEvaluator(program, options=GENERIC)
    assert not evaluator.uses_ground_pipeline
    expected = oracle.evaluate(program.to_datalog_program(), tree_database(document))
    assert indexes(evaluator.select(document, "mark")) == {
        index for (index,) in expected["mark"]
    }


def test_generic_path_observes_document_mutation():
    # The tree EDB is rebuilt per evaluate() call, so relabelling a node
    # between calls must be reflected (the fixpoint cache is content-keyed).
    program = MonadicProgram.parse("hit(X) :- label_b(X).")
    evaluator = MonadicTreeEvaluator(program, options=GENERIC)
    document = tree(("a", ("b",), ("c",)))
    assert indexes(evaluator.evaluate(document)["hit"]) == {1}
    document.node_at(2).label = "b"
    assert indexes(evaluator.evaluate(document)["hit"]) == {1, 2}
