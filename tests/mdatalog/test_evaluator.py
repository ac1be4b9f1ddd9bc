"""Tests for the O(|P|*|dom|) evaluator and its generic fallback."""

from __future__ import annotations

from repro.datalog import EngineOptions, tree_database
from repro.mdatalog import (
    InformationExtractionFunction,
    MonadicProgram,
    MonadicTreeEvaluator,
    extraction_functions,
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
    assert [n.preorder_index for n in functions["rootnode"](figure1)] == [0]


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


def test_generic_path_evaluates_a_changed_document_afresh():
    # A built Document is immutable, so a relabelled node is a second
    # document: its own content key, a fixpoint-cache miss.
    program = MonadicProgram.parse("hit(X) :- label_b(X).")
    evaluator = MonadicTreeEvaluator(program, options=GENERIC)
    assert indexes(evaluator.evaluate(tree(("a", ("b",), ("c",))))["hit"]) == {1}
    assert indexes(evaluator.evaluate(tree(("a", ("b",), ("b",))))["hit"]) == {1, 2}
    assert evaluator.fixpoint_cache_info().misses == 2


EDB_UNARY = ("root", "leaf", "firstsibling", "lastsibling", "label_a", "label_b", "label_zzz")


def _edb_expected(document, predicate):
    definitions = {
        "root": lambda node: node.parent is None,
        "leaf": lambda node: not node.children,
        "firstsibling": lambda node: node.parent is not None and node.index_in_parent == 0,
        "lastsibling": lambda node: node.parent is not None and node.parent.children[-1] is node,
    }
    holds = definitions.get(predicate)
    if holds is None:
        label = predicate[len("label_"):]
        return [n.preorder_index for n in document if n.label == label]
    return [n.preorder_index for n in document if holds(n)]


def test_select_of_edb_unary_predicates_matches_on_both_pipelines():
    # The ground pipeline seeds only the EDB predicates a rule mentions;
    # the others must still be selectable, exactly as the generic fixpoint
    # (which carries every tau_ur relation) answers them.
    reads_some = MonadicProgram.parse(
        "hit(X) :- label_a(X0), firstchild(X0, X). end(X) :- leaf(X), lastsibling(X)."
    )
    reads_none = MonadicProgram.parse("hit(X) :- label_c(X).")
    documents = [
        tree(("a",)),
        tree(("a", ("b", ("a",), ("b",)), ("c",), ("a", ("b",)))),
        random_tree(60, labels=("a", "b", "c"), seed=5),
    ]
    for program in (reads_some, reads_none):
        fast = MonadicTreeEvaluator(program)
        slow = MonadicTreeEvaluator(program, options=GENERIC)
        assert fast.uses_ground_pipeline
        for document in documents:
            for predicate in EDB_UNARY:
                expected = _edb_expected(document, predicate)
                assert [n.preorder_index for n in fast.select(document, predicate)] == expected
                assert [n.preorder_index for n in slow.select(document, predicate)] == expected


def test_ground_cache_hits_on_an_equal_document_and_answers_with_its_nodes():
    program = MonadicProgram.parse("hit(X) :- label_b(X0), nextsibling(X0, X).")
    evaluator = MonadicTreeEvaluator(program)
    literal = ("r", ("b",), ("a", ("b",), ("c",)), ("d",))
    first, second = tree(literal), tree(literal)
    first_hits = evaluator.evaluate(first)["hit"]
    before = evaluator.fixpoint_cache_info()
    second_hits = evaluator.evaluate(second)["hit"]
    after = evaluator.fixpoint_cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses
    assert [n.preorder_index for n in second_hits] == [
        n.preorder_index for n in first_hits
    ] == [2, 4]
    assert all(node is second.node_at(node.preorder_index) for node in second_hits)
    assert not any(node is first.node_at(node.preorder_index) for node in second_hits)
