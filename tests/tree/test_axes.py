"""Unit tests for axis relations."""

from __future__ import annotations

import pytest

from repro.tree import axis_iterator, holds
from repro.tree.axes import following, preceding


def labels(nodes):
    return [node.label for node in nodes]


def test_child_and_descendant_axes(figure1):
    n1 = figure1.root
    n3 = figure1.find_first("n3")
    assert labels(axis_iterator("child")(n1)) == ["n2", "n3", "n6"]
    assert labels(axis_iterator("descendant")(n1)) == ["n2", "n3", "n4", "n5", "n6"]
    assert labels(axis_iterator("descendant-or-self")(n3)) == ["n3", "n4", "n5"]


def test_ancestor_axes(figure1):
    n4 = figure1.find_first("n4")
    assert labels(axis_iterator("ancestor")(n4)) == ["n3", "n1"]
    assert labels(axis_iterator("ancestor-or-self")(n4)) == ["n4", "n3", "n1"]


def test_sibling_axes(figure1):
    n3 = figure1.find_first("n3")
    assert labels(axis_iterator("following-sibling")(n3)) == ["n6"]
    assert labels(axis_iterator("preceding-sibling")(n3)) == ["n2"]
    assert labels(axis_iterator("nextsibling")(n3)) == ["n6"]


def test_following_axis_matches_definition(figure1):
    """Following(x, y) iff x before y in document order and x not ancestor of y."""
    for x in figure1:
        expected = [
            y.label
            for y in figure1
            if x.preorder_index < y.preorder_index and not x.is_ancestor_of(y)
        ]
        assert labels(following(x)) == expected


def test_preceding_axis(figure1):
    n6 = figure1.find_first("n6")
    assert set(labels(preceding(n6))) == {"n2", "n3", "n4", "n5"}


def test_unknown_axis_raises():
    with pytest.raises(KeyError):
        axis_iterator("sideways")


def test_holds_child_variants(figure1):
    n1, n3, n4 = (figure1.find_first(label) for label in ("n1", "n3", "n4"))
    assert holds("child", n1, n3)
    assert not holds("child", n1, n4)
    assert holds("child+", n1, n4)
    assert holds("child*", n1, n1)
    assert not holds("child+", n1, n1)


def test_holds_sibling_variants(figure1):
    n2, n3, n6 = (figure1.find_first(label) for label in ("n2", "n3", "n6"))
    assert holds("nextsibling", n2, n3)
    assert holds("nextsibling+", n2, n6)
    assert not holds("nextsibling", n2, n6)
    assert holds("nextsibling*", n2, n2)


def test_holds_following(figure1):
    n4 = figure1.find_first("n4")
    n6 = figure1.find_first("n6")
    n1 = figure1.root
    assert holds("following", n4, n6)
    assert not holds("following", n1, n6)  # ancestors do not follow


def test_holds_unknown_relation(figure1):
    with pytest.raises(KeyError):
        holds("cousin", figure1.root, figure1.root)
