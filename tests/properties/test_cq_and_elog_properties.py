"""Property-based tests for conjunctive queries and Elog path matching."""

from __future__ import annotations

import re

from hypothesis import given, settings, strategies as st

from repro.cq import evaluate_acyclic, evaluate_backtracking, evaluate_filtered, query
from repro.elog import ElementPath
from repro.tree import Document, Node

LABELS = ("a", "b", "c")


@st.composite
def documents(draw, max_nodes: int = 30, comments: bool = False):
    """Random trees over LABELS; with ``comments``, leaves may be ``#comment``."""
    node_budget = draw(st.integers(min_value=2, max_value=max_nodes))
    leaf_labels = LABELS + ("#comment",) if comments else LABELS

    def build(budget):
        node = Node(draw(st.sampled_from(LABELS)))
        remaining = budget - 1
        while remaining > 0 and draw(st.booleans()):
            child_budget = draw(st.integers(min_value=1, max_value=remaining))
            if child_budget == 1:
                child, used = Node(draw(st.sampled_from(leaf_labels))), 1
            else:
                child, used = build(child_budget)
            node.append_child(child)
            remaining -= used
        return node, budget - remaining

    root, _ = build(node_budget)
    return Document(root)


@st.composite
def tree_shaped_queries(draw):
    """Small acyclic unary conjunctive queries."""
    relations = ("child", "child+", "child*", "nextsibling+", "following")
    variable_count = draw(st.integers(min_value=2, max_value=4))
    variables = [f"V{i}" for i in range(variable_count)]
    labels = [(v, draw(st.sampled_from(LABELS))) for v in variables if draw(st.booleans())]
    axes = []
    for index in range(1, variable_count):
        parent = variables[draw(st.integers(min_value=0, max_value=index - 1))]
        relation = draw(st.sampled_from(relations))
        if draw(st.booleans()):
            axes.append((relation, parent, variables[index]))
        else:
            axes.append((relation, variables[index], parent))
    return query(free=[variables[0]], labels=labels, axes=axes)


@given(documents(), tree_shaped_queries())
@settings(max_examples=40, deadline=None)
def test_cq_evaluation_strategies_agree(document, conjunctive_query):
    plain = evaluate_backtracking(conjunctive_query, document)
    filtered = evaluate_filtered(conjunctive_query, document)
    yannakakis = evaluate_acyclic(conjunctive_query, document)
    assert plain == filtered == yannakakis


def _steps_regex(path: ElementPath) -> "re.Pattern[str]":
    """An independent oracle: the steps as a regex over ``/``-joined labels."""
    parts = {"?": "(?:[^/]+/)*", "*": "[^/]+/"}
    return re.compile("".join(parts.get(step, re.escape(step) + "/") for step in path.steps))


@given(
    documents(comments=True),
    st.sampled_from(
        [
            "?.a",
            "?.b",
            ".a",
            ".a.b",
            "?.a.?.b",
            ".*.b",
            ".*.?.b",
            "?.?",
            ".a.?",
            "?.*",
            "(?.b, [(a, , substr)])",
        ]
    ),
)
@settings(max_examples=80, deadline=None)
def test_epath_find_targets_consistent_with_match_target(document, path_text):
    path = ElementPath.parse(path_text)
    root = document.root
    found = [node for node, _ in path.find_targets(root)]
    checked = [
        node
        for node in root.iter_descendants()
        if path.match_target(root, node) is not None and node.label != "#comment"
    ]
    assert found == checked
    regex = _steps_regex(path)
    oracle = [
        node
        for node in root.iter_descendants()
        if node.label != "#comment"
        and regex.fullmatch(
            "".join(f"{label}/" for label in node.label_path_from_root()[1:])
        )
        and all(condition.matches(node) is not None for condition in path.conditions)
    ]
    assert found == oracle
