"""Unit tests for the Node class."""

from __future__ import annotations

import pytest

from repro.datalog import tree_database
from repro.tree import Document, Node, tree


def build_small_tree():
    root = Node("root")
    a = root.append_child(Node("a"))
    b = root.append_child(Node("b"))
    c = root.append_child(Node("c"))
    a1 = a.append_child(Node("a1"))
    a2 = a.append_child(Node("#text", text="hello"))
    return root, a, b, c, a1, a2


def test_append_child_sets_parent_and_index():
    root, a, b, c, a1, a2 = build_small_tree()
    assert a.parent is root
    assert a.index_in_parent == 0
    assert b.index_in_parent == 1
    assert c.index_in_parent == 2
    assert a1.parent is a


def test_append_child_rejects_attached_node():
    root, a, *_ = build_small_tree()
    other = Node("other")
    with pytest.raises(ValueError):
        other.append_child(a)


def test_first_and_last_sibling_flags():
    root, a, b, c, a1, a2 = build_small_tree()
    database = tree_database(Document(root))
    first = {index for (index,) in database["firstsibling"]}
    last = {index for (index,) in database["lastsibling"]}
    assert a.preorder_index in first and a.preorder_index not in last
    assert c.preorder_index in last and c.preorder_index not in first
    # A text node is a sibling like any other: a2 is the last child of a.
    assert a1.preorder_index in first and a2.preorder_index in last
    # The root has no parent (paper convention).
    assert root.preorder_index not in first | last


def test_sibling_navigation():
    root, a, b, c, *_ = build_small_tree()
    assert a.next_sibling is b
    assert b.next_sibling is c
    assert c.next_sibling is None
    assert c.previous_sibling is b
    assert a.previous_sibling is None


def test_first_and_last_child():
    root, a, b, c, a1, a2 = build_small_tree()
    database = tree_database(Document(root))
    index = {node: node.preorder_index for node in (root, a, b, c, a1, a2)}
    assert (index[root], index[a]) in database["firstchild"]
    assert (index[root], index[c]) in database["lastchild"]
    assert (index[a], index[a1]) in database["firstchild"]
    assert (index[a], index[a2]) in database["lastchild"]
    assert not {pair for pair in database["firstchild"] if pair[0] == index[b]}
    assert not {pair for pair in database["lastchild"] if pair[0] == index[b]}


def test_append_child_refuses_the_nodes_of_a_built_document():
    root, a, b, *_ = build_small_tree()
    Document(root)
    with pytest.raises(ValueError):
        b.append_child(Node("new"))
    with pytest.raises(ValueError):
        Node("wrapper").append_child(root)
    assert b.children == [] and root.parent is None


def test_a_changed_tree_is_built_anew():
    # A built tree is never edited: removing or inserting a child means
    # building a second tree, whose sibling positions are numbered afresh.
    without_b = tree(("root", ("a",), ("c",))).root
    assert [child.index_in_parent for child in without_b.children] == [0, 1]
    with_new = tree(("root", ("a",), ("new",), ("b",), ("c",))).root
    assert [child.label for child in with_new.children] == ["a", "new", "b", "c"]
    assert [child.index_in_parent for child in with_new.children] == [0, 1, 2, 3]


def test_iter_preorder_is_document_order():
    root, a, b, c, a1, a2 = build_small_tree()
    labels = [node.label for node in root.iter_preorder()]
    assert labels == ["root", "a", "a1", "#text", "b", "c"]


def test_iter_ancestors():
    root, a, b, c, a1, a2 = build_small_tree()
    assert [node.label for node in a1.iter_ancestors()] == ["a", "root"]


def test_text_content_concatenates_descendant_text():
    root, a, *_ = build_small_tree()
    assert a.text_content() == "hello"
    assert root.text_content() == "hello"


def test_normalized_text_collapses_whitespace():
    node = Node("p")
    node.append_child(Node("#text", text="  lots \n of   space "))
    assert node.normalized_text() == "lots of space"


def test_subtree_size_and_depth():
    root, a, b, c, a1, a2 = build_small_tree()
    assert root.subtree_size() == 6
    assert a.subtree_size() == 3
    assert a1.depth() == 2
    assert root.depth() == 0


def test_is_ancestor_without_index():
    root, a, b, c, a1, a2 = build_small_tree()
    assert root.is_ancestor_of(a1)
    assert not a1.is_ancestor_of(root)
    assert not a.is_ancestor_of(a)
