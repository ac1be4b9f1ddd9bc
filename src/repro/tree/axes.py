"""Axis relations over unranked ordered trees.

Section 4 of the paper works with the axis relations

    Child, Child+, Child*, Nextsibling, Nextsibling+, Nextsibling*, Following

(and their inverses, as used by XPath).  This module provides per-node
navigation functions (``child_nodes(node)``, ``following(node)``, ...) and
the membership test :func:`holds`, which answers descendant and following
tests in O(1) from the document's preorder/postorder numbering.

Both the XPath and the conjunctive-query evaluators are built on top of
these primitives.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator

from .node import Node

# ---------------------------------------------------------------------------
# Per-node axis generators (document order within each axis where applicable)
# ---------------------------------------------------------------------------


def self_axis(node: Node) -> Iterator[Node]:
    yield node


def child_nodes(node: Node) -> Iterator[Node]:
    return iter(node.children)


def parent_axis(node: Node) -> Iterator[Node]:
    if node.parent is not None:
        yield node.parent


def descendant(node: Node) -> Iterator[Node]:
    return node.iter_descendants()


def descendant_or_self(node: Node) -> Iterator[Node]:
    return node.iter_preorder()


def ancestor(node: Node) -> Iterator[Node]:
    return node.iter_ancestors()


def ancestor_or_self(node: Node) -> Iterator[Node]:
    yield node
    yield from node.iter_ancestors()


def next_sibling(node: Node) -> Iterator[Node]:
    sibling = node.next_sibling
    if sibling is not None:
        yield sibling


def previous_sibling(node: Node) -> Iterator[Node]:
    sibling = node.previous_sibling
    if sibling is not None:
        yield sibling


def following_sibling(node: Node) -> Iterator[Node]:
    return node.iter_following_siblings()


def following_sibling_or_self(node: Node) -> Iterator[Node]:
    yield node
    yield from node.iter_following_siblings()


def preceding_sibling(node: Node) -> Iterator[Node]:
    return node.iter_preceding_siblings()


def preceding_sibling_or_self(node: Node) -> Iterator[Node]:
    yield node
    yield from node.iter_preceding_siblings()


def following(node: Node) -> Iterator[Node]:
    """XPath ``following``: nodes after ``node`` in document order that are
    not descendants of it.

    Equivalently (as in the paper):
    Following(x, y) iff exists z1, z2 with Child*(z1, x), Nextsibling+(z1, z2)
    and Child*(z2, y).
    """
    for ancestor_or_self_node in ancestor_or_self(node):
        for sibling in ancestor_or_self_node.iter_following_siblings():
            yield from sibling.iter_preorder()


def preceding(node: Node) -> Iterator[Node]:
    """XPath ``preceding``: nodes before ``node`` that are not ancestors."""
    for ancestor_or_self_node in ancestor_or_self(node):
        for sibling in ancestor_or_self_node.iter_preceding_siblings():
            yield from sibling.iter_preorder()


def first_child(node: Node) -> Iterator[Node]:
    if node.children:
        yield node.children[0]


def last_child(node: Node) -> Iterator[Node]:
    if node.children:
        yield node.children[-1]


AXIS_FUNCTIONS: Dict[str, Callable[[Node], Iterator[Node]]] = {
    "self": self_axis,
    "child": child_nodes,
    "parent": parent_axis,
    "descendant": descendant,
    "descendant-or-self": descendant_or_self,
    "ancestor": ancestor,
    "ancestor-or-self": ancestor_or_self,
    "nextsibling": next_sibling,
    "previoussibling": previous_sibling,
    "following-sibling": following_sibling,
    "following-sibling-or-self": following_sibling_or_self,
    "preceding-sibling": preceding_sibling,
    "preceding-sibling-or-self": preceding_sibling_or_self,
    "following": following,
    "preceding": preceding,
    "firstchild": first_child,
    "lastchild": last_child,
}

# Names the conjunctive-query layer uses for binary axis relations.  Each maps
# to a predicate ``holds(x, y)``.
AXIS_RELATION_NAMES = (
    "child",
    "child+",
    "child*",
    "nextsibling",
    "nextsibling+",
    "nextsibling*",
    "following",
)


def axis_iterator(name: str) -> Callable[[Node], Iterator[Node]]:
    """Look up a per-node axis generator by (XPath-style) name."""
    try:
        return AXIS_FUNCTIONS[name]
    except KeyError:
        raise KeyError(f"unknown axis {name!r}") from None


# ---------------------------------------------------------------------------
# Pairwise axis predicates
# ---------------------------------------------------------------------------


def holds(relation: str, x: Node, y: Node) -> bool:
    """Decide whether the binary axis ``relation`` holds between x and y."""
    if relation == "child":
        return y.parent is x
    if relation == "firstchild":
        return bool(x.children) and x.children[0] is y
    if relation == "child+":
        return x.is_ancestor_of(y)
    if relation == "child*":
        return x is y or x.is_ancestor_of(y)
    if relation == "nextsibling":
        return x.next_sibling is y
    if relation == "nextsibling+":
        return (
            x.parent is not None
            and x.parent is y.parent
            and x.index_in_parent < y.index_in_parent
        )
    if relation == "nextsibling*":
        return x is y or holds("nextsibling+", x, y)
    if relation == "following":
        return (
            x.preorder_index < y.preorder_index
            and not x.is_ancestor_of(y)
        )
    raise KeyError(f"unknown axis relation {relation!r}")
