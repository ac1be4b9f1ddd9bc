"""Experiment E4: TMNF recognition and the Theorem 2.7 rewriting."""

from __future__ import annotations

import pytest

from repro.datalog import EngineOptions
from repro.datalog.parser import parse_rules
from repro.mdatalog import (
    MonadicProgram,
    MonadicTreeEvaluator,
    TMNFRewriteError,
    is_tmnf,
    italic_program,
    rule_tmnf_form,
    to_tmnf,
)
from repro.tree import random_tree, tree

GENERIC = EngineOptions(force_generic=True)


def selection(program, document, predicate):
    return {
        node.preorder_index
        for node in MonadicTreeEvaluator(program).select(document, predicate)
    }


def generic_selection(program, document, predicate):
    return {
        node.preorder_index
        for node in MonadicTreeEvaluator(program, options=GENERIC).select(
            document, predicate
        )
    }


def test_rule_tmnf_form_classification():
    rules = parse_rules(
        """
        p(X) :- q(X).
        p(X) :- q(X0), firstchild(X0, X).
        p(X) :- q(X0), firstchild(X, X0).
        p(X) :- q(X), r(X).
        p(X) :- q(X0), child(X0, X).
        p(X) :- q(X0), firstchild(X0, X), r(X).
        """
    )
    assert rule_tmnf_form(rules[0]) == 1
    assert rule_tmnf_form(rules[1]) == 2
    assert rule_tmnf_form(rules[2]) == 2  # inverse orientation allowed
    assert rule_tmnf_form(rules[3]) == 3
    assert rule_tmnf_form(rules[4]) is None  # child not allowed in TMNF
    assert rule_tmnf_form(rules[5]) is None  # too long


def test_italic_program_is_already_tmnf():
    assert is_tmnf(italic_program())


def test_to_tmnf_eliminates_child():
    program = MonadicProgram.parse(
        """
        inner(X) :- label_table(X0), child(X0, X).
        """,
    )
    assert not is_tmnf(program)
    rewritten = to_tmnf(program)
    assert is_tmnf(rewritten)
    predicates = {
        literal.atom.predicate
        for rule in rewritten.rules
        for literal in rule.body
        if literal.atom.arity == 2
    }
    assert "child" not in predicates

    document = tree(
        ("html", ("table", ("tr", ("td",)), ("tr",)), ("table", ("tr",)), ("p",))
    )
    assert selection(rewritten, document, "inner") == generic_selection(
        program, document, "inner"
    )
    # children of tables are the <tr> nodes only
    expected = {
        node.preorder_index for node in document.find_all("tr")
    }
    assert selection(rewritten, document, "inner") == expected


def test_to_tmnf_long_path_rule():
    """A subelem-style rule: td nodes inside a tr inside a table."""
    program = MonadicProgram.parse(
        """
        cell(X) :- label_table(T), child(T, R), label_tr(R), child(R, X), label_td(X).
        """,
    )
    rewritten = to_tmnf(program)
    assert is_tmnf(rewritten)
    document = tree(
        (
            "body",
            ("table", ("tr", ("td",), ("td",)), ("tr", ("td",))),
            ("div", ("tr", ("td",))),  # td not under a table: must not match
        )
    )
    expected = {
        node.preorder_index
        for node in document.find_all("td")
        if node.parent.label == "tr" and node.parent.parent.label == "table"
    }
    assert selection(rewritten, document, "cell") == expected
    assert generic_selection(program, document, "cell") == expected


def test_to_tmnf_upward_child_edge():
    """Rule whose body walks upwards: select parents of td nodes."""
    program = MonadicProgram.parse("rowlike(X) :- child(X, Y), label_td(Y).")
    rewritten = to_tmnf(program)
    assert is_tmnf(rewritten)
    document = tree(("table", ("tr", ("td",)), ("tr", ("th",)), ("td",)))
    expected = {
        node.parent.preorder_index for node in document.find_all("td")
    }
    assert selection(rewritten, document, "rowlike") == expected


def test_to_tmnf_disconnected_component_becomes_global_guard():
    """p(x) <- label_a(x), label_marker(y): selects a-nodes iff a marker exists."""
    program = MonadicProgram.parse("p(X) :- label_a(X), label_marker(Y).")
    rewritten = to_tmnf(program)
    assert is_tmnf(rewritten)

    with_marker = tree(("root", ("a",), ("marker",), ("a",)))
    without_marker = tree(("root", ("a",), ("b",), ("a",)))
    assert selection(rewritten, with_marker, "p") == {
        node.preorder_index for node in with_marker.find_all("a")
    }
    assert selection(rewritten, without_marker, "p") == set()
    # agreement with the generic engine
    assert selection(rewritten, with_marker, "p") == generic_selection(
        program, with_marker, "p"
    )


def test_to_tmnf_rejects_cyclic_rule_bodies():
    program = MonadicProgram.parse(
        "p(X) :- firstchild(X, Y), nextsibling(X, Y)."
    )
    with pytest.raises(TMNFRewriteError):
        to_tmnf(program)


def test_to_tmnf_rejects_negation():
    program = MonadicProgram.parse(
        "p(X) :- label_a(X), not q(X). q(X) :- label_b(X)."
    )
    with pytest.raises(TMNFRewriteError):
        to_tmnf(program)


def test_tmnf_rewriting_preserves_semantics_on_random_trees():
    program = MonadicProgram.parse(
        """
        hit(X) :- label_a(A), child(A, B), label_b(B), child(B, X), label_c(X).
        hit(X) :- label_d(X0), nextsibling(X0, X).
        """,
        query_predicates=["hit"],
    )
    rewritten = to_tmnf(program)
    assert is_tmnf(rewritten)
    for seed in range(5):
        document = random_tree(120, labels=("a", "b", "c", "d"), seed=seed)
        assert selection(rewritten, document, "hit") == generic_selection(
            program, document, "hit"
        )


def test_to_tmnf_output_size_is_linear_in_input():
    """Theorem 2.7: the rewriting is linear — output size O(|P|)."""
    # build a long path rule with 9 variables
    rule_text = (
        "deep(X8) :- label_r(X0), "
        + ", ".join(f"child(X{i}, X{i+1})" for i in range(8))
        + ", leaf(X8)."
    )
    program = MonadicProgram.parse(rule_text)
    rewritten = to_tmnf(program)
    assert is_tmnf(rewritten)
    # each original atom should give rise to only a constant number of rules
    assert len(rewritten.rules) <= 8 * len(program.rules) * 12
