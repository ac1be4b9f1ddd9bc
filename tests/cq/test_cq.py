"""Tests for conjunctive queries over trees: evaluation, acyclicity,
classification, and the Corollary 4.5 translation (experiment E10)."""

from __future__ import annotations

import pytest

from repro.cq import (
    TRACTABLE_AXIS_CLASSES,
    CQEvaluationError,
    CQToXPathError,
    boolean_answer,
    classify,
    classify_axes,
    evaluate_acyclic,
    evaluate_backtracking,
    evaluate_filtered,
    is_acyclic,
    query,
    to_positive_core_xpath,
    unary_answers,
)
from repro.tree import random_tree, tree
from repro.xpath import evaluate_xpath


@pytest.fixture
def sample():
    return tree(
        (
            "r",
            ("a", ("b", ("c",)), ("b",)),
            ("a", ("c",)),
            ("b", ("a", ("c",))),
        )
    )


def test_query_construction_and_accessors():
    q = query(
        free=["X"],
        labels=[("X", "b"), ("Y", "a")],
        axes=[("child", "Y", "X")],
    )
    assert q.variables() == {"X", "Y"}
    assert q.axis_relations() == {"child"}
    assert q.size() == 3
    assert q.is_tree_shaped()
    assert "child(Y, X)" in str(q)


def test_unknown_axis_rejected():
    with pytest.raises(ValueError):
        query(axes=[("cousin", "X", "Y")])


def test_unary_query_child(sample):
    q = query(free=["X"], labels=[("X", "b"), ("Y", "a")], axes=[("child", "Y", "X")])
    answers = unary_answers(q, sample)
    assert all(node.label == "b" and node.parent.label == "a" for node in answers)
    assert len(answers) == 2


def test_unary_query_descendant(sample):
    q = query(free=["X"], labels=[("X", "c"), ("Y", "a")], axes=[("child+", "Y", "X")])
    answers = unary_answers(q, sample)
    assert len(answers) == 3  # every c has an a ancestor in the sample


def test_boolean_query(sample):
    yes = query(labels=[("X", "c"), ("Y", "b")], axes=[("child", "Y", "X")])
    no = query(labels=[("X", "r"), ("Y", "r")], axes=[("child", "Y", "X")])
    assert boolean_answer(yes, sample)
    assert not boolean_answer(no, sample)


def test_boolean_and_unary_guards():
    q_unary = query(free=["X"], labels=[("X", "a")])
    q_boolean = query(labels=[("X", "a")])
    doc = tree(("a",))
    with pytest.raises(CQEvaluationError):
        boolean_answer(q_unary, doc)
    with pytest.raises(CQEvaluationError):
        unary_answers(q_boolean, doc)


def test_backtracking_and_filtered_agree_on_random_inputs():
    for seed in range(4):
        document = random_tree(60, labels=("a", "b", "c"), seed=seed)
        q = query(
            free=["X"],
            labels=[("X", "b"), ("Y", "a"), ("Z", "c")],
            axes=[("child+", "Y", "X"), ("following", "X", "Z")],
        )
        assert evaluate_backtracking(q, document) == evaluate_filtered(q, document)


def test_cyclic_query_evaluation(sample):
    # x is a child of y AND an immediate next sibling of z, z child of y: cyclic
    q = query(
        free=["X"],
        labels=[("Y", "a")],
        axes=[("child", "Y", "X"), ("child", "Y", "Z"), ("nextsibling", "Z", "X")],
    )
    assert not is_acyclic(q)
    answers = unary_answers(q, sample)
    assert all(node.previous_sibling is not None for node in answers)
    with pytest.raises(CQEvaluationError):
        evaluate_acyclic(q, sample)


def test_acyclic_detection():
    acyclic = query(axes=[("child", "X", "Y"), ("child", "Y", "Z")])
    cyclic = query(axes=[("child", "X", "Y"), ("child+", "X", "Y")])
    assert is_acyclic(acyclic)
    assert not is_acyclic(cyclic)


def test_yannakakis_agrees_with_generic_on_tree_queries():
    q = query(
        free=["X"],
        labels=[("X", "b"), ("P", "a"), ("S", "c")],
        axes=[("child", "P", "X"), ("following", "X", "S")],
    )
    for seed in range(4):
        document = random_tree(70, labels=("a", "b", "c"), seed=seed)
        assert evaluate_acyclic(q, document) == evaluate_backtracking(q, document)


def test_yannakakis_boolean_and_multi_free():
    q_bool = query(labels=[("X", "a"), ("Y", "b")], axes=[("child", "X", "Y")])
    q_pair = query(
        free=["X", "Y"], labels=[("X", "a"), ("Y", "b")], axes=[("child", "X", "Y")]
    )
    document = tree(("r", ("a", ("b",)), ("a",)))
    assert evaluate_acyclic(q_bool, document) == {()}
    assert evaluate_acyclic(q_pair, document) == evaluate_backtracking(q_pair, document)
    assert len(evaluate_acyclic(q_pair, document)) == 1


def test_classification_of_axis_sets():
    assert classify_axes({"child+", "child*"}).tractable
    assert classify_axes({"child", "nextsibling", "nextsibling*"}).tractable
    assert classify_axes({"following"}).tractable
    assert not classify_axes({"child", "child+"}).tractable
    assert not classify_axes({"child*", "following"}).tractable
    assert classify_axes({"child", "child+"}).complexity == "NP-complete"
    assert len(TRACTABLE_AXIS_CLASSES) == 3


def test_classify_query_reports_acyclicity():
    q = query(free=["X"], axes=[("child", "Y", "X")])
    verdict = classify(q)
    assert verdict.tractable
    assert verdict.acyclic
    with pytest.raises(ValueError):
        classify_axes({"bogus"})


def test_to_positive_core_xpath_matches_cq_semantics():
    q = query(
        free=["X"],
        labels=[("X", "b"), ("P", "a"), ("D", "c")],
        axes=[("child+", "P", "X"), ("child", "X", "D")],
    )
    xpath_query = to_positive_core_xpath(q)
    for seed in range(4):
        document = random_tree(60, labels=("a", "b", "c", "r"), seed=seed)
        expected = {node.preorder_index for node in unary_answers(q, document)}
        got = {node.preorder_index for node in evaluate_xpath(document, xpath_query)}
        assert got == expected


def test_to_positive_core_xpath_with_following_and_upward_edges():
    q = query(
        free=["X"],
        labels=[("X", "c"), ("A", "a"), ("F", "b")],
        axes=[("child+", "A", "X"), ("following", "X", "F")],
    )
    xpath_query = to_positive_core_xpath(q)
    document = random_tree(80, labels=("a", "b", "c"), seed=9)
    expected = {node.preorder_index for node in unary_answers(q, document)}
    got = {node.preorder_index for node in evaluate_xpath(document, xpath_query)}
    assert got == expected


def test_to_positive_core_xpath_rejections():
    cyclic = query(free=["X"], axes=[("child", "X", "Y"), ("child+", "X", "Y")])
    with pytest.raises(CQToXPathError):
        to_positive_core_xpath(cyclic)
    boolean = query(axes=[("child", "X", "Y")])
    with pytest.raises(CQToXPathError):
        to_positive_core_xpath(boolean)
    nextsib = query(free=["X"], axes=[("nextsibling", "X", "Y")])
    with pytest.raises(CQToXPathError):
        to_positive_core_xpath(nextsib)
