"""Differential test: ``?.name`` region queries against the automaton walk.

``ElementPath.find_targets`` answers a ``?.name`` path over a node of a built
``Document`` by bisecting the document's preorder column for ``name``, and
every other path, or any tree never wrapped in a document, by the automaton
walk.  Each random document here is compared with a bare copy of its tree
(the same labels, attributes, text and shape, never indexed), on which every
path takes the walk: the hits must be the same nodes, with the same
bindings, in the same document order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.elog import AttributeCondition, ElementPath
from repro.tree import Document, Node

LABELS = ("a", "b", "c")
#: Target names: element labels, the character-data labels, and one label
#: no generated tree carries.
NAMES = LABELS + ("#text", "#comment", "d")


@st.composite
def documents(draw, max_nodes: int = 40):
    """Random trees over three element labels (so a parent often carries the
    name it looks for), with ``#text`` and ``#comment`` leaves and a
    ``class`` attribute on some elements."""
    node_budget = draw(st.integers(min_value=1, max_value=max_nodes))

    def element():
        label = draw(st.sampled_from(LABELS))
        if draw(st.booleans()):
            return Node(label, {"class": draw(st.sampled_from(("x", "y")))})
        return Node(label)

    def leaf():
        kind = draw(st.sampled_from(("element", "#text", "#comment")))
        if kind == "element":
            return element()
        return Node(kind, text=draw(st.sampled_from(("x", "y z"))))

    def build(budget):
        node = element()
        remaining = budget - 1
        while remaining > 0 and draw(st.booleans()):
            if draw(st.booleans()):
                child, used = leaf(), 1
            else:
                child, used = build(draw(st.integers(min_value=1, max_value=remaining)))
            node.append_child(child)
            remaining -= used
        return node, budget - remaining

    root, _ = build(node_budget)
    return Document(root)


def bare_copy(root: Node) -> Node:
    """The same tree, node for node, never wrapped in a document."""
    copy = Node(root.label, dict(root.attributes), root.text)
    for child in root.children:
        copy.append_child(bare_copy(child))
    return copy


CONDITIONS = (
    AttributeCondition("class", "x", "exact"),
    AttributeCondition("elementtext", "y", "substr"),
    AttributeCondition("class", r"\var[K]", "regvar"),
)

#: ``?.name`` in two of every three draws, half of them with a condition;
#: the rest are other shapes, which both trees answer by the walk.
paths = st.one_of(
    st.builds(lambda name: ElementPath(steps=("?", name)), st.sampled_from(NAMES)),
    st.builds(
        lambda name, condition: ElementPath(steps=("?", name), conditions=(condition,)),
        st.sampled_from(NAMES),
        st.sampled_from(CONDITIONS),
    ),
    st.lists(st.sampled_from(LABELS + ("*", "?")), min_size=1, max_size=4).map(
        lambda steps: ElementPath(steps=tuple(steps))
    ),
)


def _answer(path: ElementPath, parent: Node, positions):
    return [(positions[id(node)], bindings) for node, bindings in path.find_targets(parent)]


@given(documents(), paths, st.data())
@settings(max_examples=300, deadline=None)
def test_region_queries_find_what_the_walk_finds(document, path, data):
    bare = bare_copy(document.root)
    bare_nodes = list(bare.iter_preorder())
    at = {id(node): index for index, node in enumerate(document.dom)}
    bare_at = {id(node): index for index, node in enumerate(bare_nodes)}
    inner = data.draw(st.integers(min_value=0, max_value=len(document) - 1))
    # The root, the last node in document order (always a leaf) and one
    # drawn node.
    for index in (0, len(document) - 1, inner):
        assert bare_nodes[index].document is None
        assert _answer(path, document.node_at(index), at) == _answer(
            path, bare_nodes[index], bare_at
        )
