"""Tests for tree builders, literals, serialisation and random trees."""

from __future__ import annotations

import pytest

from repro.tree import TreeBuilder, random_tree, tree
from tests.tree.serialize import from_dict, to_dict, to_sexpr


def test_tree_literal_with_attributes_and_text():
    doc = tree(("a", {"id": "x"}, ("b", "text:hello"), "c"))
    assert doc.root.label == "a"
    assert doc.root.attributes == {"id": "x"}
    b = doc.find_first("b")
    assert b.text_content() == "hello"
    assert not doc.find_first("c").children


def test_tree_literal_rejects_empty():
    with pytest.raises(ValueError):
        tree(())


def test_tree_builder_basic_flow():
    builder = TreeBuilder()
    builder.start("html")
    builder.start("body")
    builder.text("hi")
    builder.empty("hr")
    builder.end("body")
    builder.end("html")
    doc = builder.finish(url="http://x")
    assert doc.url == "http://x"
    assert [n.label for n in doc] == ["#document", "html", "body", "#text", "hr"]


def test_tree_builder_mismatched_end_tags_are_lenient():
    builder = TreeBuilder()
    builder.start("div")
    builder.start("span")
    builder.end("div")  # closes span implicitly
    doc = builder.finish()
    assert doc.find_first("span") is not None
    assert doc.find_first("div") is not None


def test_tree_builder_finish_twice_raises():
    builder = TreeBuilder()
    builder.finish()
    with pytest.raises(RuntimeError):
        builder.finish()


def test_sexpr_serialisation(figure1):
    assert to_sexpr(figure1) == "(n1 n2 (n3 n4 n5) n6)"


def test_dict_round_trip(nested_tree):
    data = to_dict(nested_tree)
    restored = from_dict(data)
    assert to_sexpr(restored) == to_sexpr(nested_tree)


def test_random_tree_is_deterministic_and_sized():
    first = random_tree(100, seed=3)
    second = random_tree(100, seed=3)
    assert len(first) == 100
    assert to_sexpr(first) == to_sexpr(second)
    assert to_sexpr(first) != to_sexpr(random_tree(100, seed=4))


def test_random_tree_requires_positive_size():
    with pytest.raises(ValueError):
        random_tree(0)
