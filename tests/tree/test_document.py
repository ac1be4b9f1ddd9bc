"""Unit tests for Document indexing and tau_ur relations."""

from __future__ import annotations

import random

import pytest

from repro.tree import Document, Node, random_tree, tree


def test_document_requires_detached_root():
    parent = Node("p")
    child = parent.append_child(Node("c"))
    with pytest.raises(ValueError):
        Document(child)


def test_dom_is_document_order(figure1):
    labels = [node.label for node in figure1.dom]
    assert labels == ["n1", "n2", "n3", "n4", "n5", "n6"]


def test_preorder_indexes_are_consecutive(figure1):
    assert [node.preorder_index for node in figure1] == list(range(6))


def test_nodes_with_label(figure1):
    assert [n.label for n in figure1.nodes_with_label("n3")] == ["n3"]
    assert figure1.nodes_with_label("missing") == []


def test_labels_and_histogram(nested_tree):
    assert nested_tree.labels() == {"doc", "section", "title", "para", "i", "b", "list", "item"}
    assert len(nested_tree.nodes_with_label("section")) == 2
    assert len(nested_tree.nodes_with_label("item")) == 3


def test_document_order_and_precedes(figure1):
    n2 = figure1.find_first("n2")
    n5 = figure1.find_first("n5")
    assert n2.preorder_index < n5.preorder_index
    for node in figure1:
        assert figure1.node_at(node.preorder_index) is node
        for ancestor in node.iter_ancestors():
            assert ancestor.preorder_index < node.preorder_index


def test_depth(nested_tree):
    assert nested_tree.depth() == 4  # doc > section > para > i > b


def test_a_built_document_is_immutable(figure1):
    n3 = figure1.find_first("n3")
    with pytest.raises(ValueError):
        n3.append_child(Node("n7"))
    assert [node.label for node in figure1] == ["n1", "n2", "n3", "n4", "n5", "n6"]
    # The change is a second document, indexed when it is built.
    extended = tree(("n1", ("n2",), ("n3", ("n4",), ("n5",), ("n7",)), ("n6",)))
    assert [node.label for node in extended] == ["n1", "n2", "n3", "n4", "n5", "n7", "n6"]


def _assert_subtree_ends(document):
    for node in document:
        assert node.subtree_end == node.postorder_index + node.depth() + 1
        assert node.subtree_end == node.preorder_index + node.subtree_size()


def _copy_without(node, victim):
    copy = Node(node.label)
    for child in node.children:
        if child is not victim:
            copy.append_child(_copy_without(child, victim))
    return copy


@pytest.mark.parametrize("seed", range(8))
def test_construction_records_each_subtree_end(seed):
    rng = random.Random(seed)
    document = random_tree(rng.randint(1, 120), max_children=rng.randint(1, 6), seed=seed)
    _assert_subtree_ends(document)
    victims = [node for node in document if node.parent is not None]
    if victims:
        # A second document built without one subtree.
        _assert_subtree_ends(Document(_copy_without(document.root, rng.choice(victims))))
