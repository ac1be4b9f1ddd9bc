"""One-pass node text against the generator-walk reference.

``Node.text_content`` answers a leaf and an element around one text node
without a walk and walks anything else with an inline stack;
``PatternInstance.text`` goes straight to the node for a single-node
instance.  Both must equal the definitions they replaced, kept here as the
reference: every text in a preorder walk, concatenated, and the joined
non-empty normalised texts of an instance's member nodes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elog.instance_base import PatternInstance
from repro.tree.node import Node

TEXTS = st.sampled_from(["", "a", " b  c ", "\n", "EUR 12.50", "x y"])


def reference_text_content(node: Node) -> str:
    return "".join(n.text for n in node.iter_preorder() if n.text)


def reference_normalized_text(node: Node) -> str:
    return " ".join(reference_text_content(node).split())


def reference_instance_text(instance: PatternInstance) -> str:
    if instance.value is not None and instance.node is None and instance.nodes is None:
        return instance.value
    members = instance.member_nodes()
    if members:
        texts = (reference_normalized_text(node) for node in members)
        return " ".join(text for text in texts if text)
    return instance.value or ""


def _build(shape) -> Node:
    """A tree from ``(label, text, children)``; ``#text`` nodes are leaves."""
    label, text, children = shape
    node = Node(label, text=text)
    if label != "#text":
        for child in children:
            node.append_child(_build(child))
    return node


SHAPES = st.recursive(
    st.tuples(st.sampled_from(["#text", "td"]), TEXTS, st.just(())),
    lambda inner: st.tuples(
        st.sampled_from(["td", "tr", "b", "#text"]),
        TEXTS,
        st.lists(inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(SHAPES)
def test_text_content_equals_the_preorder_walk(shape):
    root = _build(shape)
    for node in root.iter_preorder():
        assert node.text_content() == reference_text_content(node)
        assert node.normalized_text() == reference_normalized_text(node)


@settings(max_examples=300, deadline=None)
@given(SHAPES, st.data())
def test_instance_text_equals_the_member_walk(shape, data):
    root = _build(shape)
    nodes = list(root.iter_preorder())
    pick = st.sampled_from(nodes)
    value = data.draw(st.none() | TEXTS)
    instances = [
        PatternInstance("p", None, node=data.draw(pick), value=value),
        PatternInstance("p", None, nodes=data.draw(st.lists(pick, max_size=4)), value=value),
        PatternInstance("p", None, node=data.draw(pick),
                        nodes=data.draw(st.lists(pick, max_size=3)), value=value),
        PatternInstance("p", None, value=value),
    ]
    for instance in instances:
        assert instance.text() == reference_instance_text(instance)
