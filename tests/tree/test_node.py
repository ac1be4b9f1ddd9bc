"""Unit tests for the Node class."""

from __future__ import annotations

import pytest

from repro.tree import Document, element, text_node, tree


def build_small_tree():
    root = element("root")
    a = root.append_child(element("a"))
    b = root.append_child(element("b"))
    c = root.append_child(element("c"))
    a1 = a.append_child(element("a1"))
    a2 = a.append_child(text_node("hello"))
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
    other = element("other")
    with pytest.raises(ValueError):
        other.append_child(a)


def test_first_and_last_sibling_flags():
    root, a, b, c, a1, a2 = build_small_tree()
    assert a.is_first_sibling and not a.is_last_sibling
    assert c.is_last_sibling and not c.is_first_sibling
    assert not root.is_last_sibling  # the root has no parent (paper convention)
    assert not root.is_first_sibling


def test_sibling_navigation():
    root, a, b, c, *_ = build_small_tree()
    assert a.next_sibling is b
    assert b.next_sibling is c
    assert c.next_sibling is None
    assert c.previous_sibling is b
    assert a.previous_sibling is None


def test_first_and_last_child():
    root, a, b, c, a1, a2 = build_small_tree()
    assert root.first_child is a
    assert root.last_child is c
    assert b.first_child is None


def test_append_child_refuses_the_nodes_of_a_built_document():
    root, a, b, *_ = build_small_tree()
    Document(root)
    with pytest.raises(ValueError):
        b.append_child(element("new"))
    with pytest.raises(ValueError):
        element("wrapper").append_child(root)
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
    node = element("p")
    node.append_child(text_node("  lots \n of   space "))
    assert node.normalized_text() == "lots of space"


def test_subtree_size_and_depth():
    root, a, b, c, a1, a2 = build_small_tree()
    assert root.subtree_size() == 6
    assert a.subtree_size() == 3
    assert a1.depth() == 2
    assert root.depth() == 0


def test_path_from_root():
    root, a, b, c, a1, a2 = build_small_tree()
    assert a1.label_path_from_root() == ["root", "a", "a1"]


def test_get_attribute_default():
    node = element("a", {"href": "/x"})
    assert node.get_attribute("href") == "/x"
    assert node.get_attribute("missing", "none") == "none"


def test_is_ancestor_without_index():
    root, a, b, c, a1, a2 = build_small_tree()
    assert root.is_ancestor_of(a1)
    assert not a1.is_ancestor_of(root)
    assert not a.is_ancestor_of(a)
    assert a1.is_descendant_of(root)
