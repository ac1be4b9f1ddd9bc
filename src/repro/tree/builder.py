"""Convenience builders for unranked ordered trees.

Two construction styles are provided:

* :func:`tree` / nested-tuple literals — handy in tests and examples,
  mirroring how the paper draws example trees (Figure 1).
* :class:`TreeBuilder` — an imperative builder used by the HTML and XML
  parsers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from .document import Document
from .node import Node

# A tree literal is either a plain label (leaf), or a tuple/list whose first
# entry is the label (optionally followed by an attribute dict) and whose
# remaining entries are child literals.  Strings starting with "text:" create
# text nodes.
TreeLiteral = Union[str, Sequence]


def _node_from_literal(literal: TreeLiteral) -> Node:
    if isinstance(literal, str):
        if literal.startswith("text:"):
            return Node("#text", text=literal[len("text:"):])
        return Node(literal)
    if not literal:
        raise ValueError("empty tree literal")
    label = literal[0]
    if not isinstance(label, str):
        raise ValueError(f"tree literal must start with a label, got {label!r}")
    rest = list(literal[1:])
    attributes: Optional[Dict[str, str]] = None
    if rest and isinstance(rest[0], dict):
        attributes = dict(rest.pop(0))
    node = Node(label, attributes=attributes)
    for child_literal in rest:
        node.append_child(_node_from_literal(child_literal))
    return node


def tree(literal: TreeLiteral, url: Optional[str] = None) -> Document:
    """Build a :class:`Document` from a nested literal.

    Example (the tree of Figure 1)::

        doc = tree(("n1", ("n2",), ("n3", ("n4",), ("n5",)), ("n6",)))
    """
    return Document(_node_from_literal(literal), url=url)


def figure1_tree() -> Document:
    """The 6-node example tree of Figure 1 of the paper.

    The root n1 has children n2, n3, n6; n3 has children n4 and n5.
    Labels are simply the node names.
    """
    return tree(("n1", ("n2",), ("n3", ("n4",), ("n5",)), ("n6",)))


class TreeBuilder:
    """Imperative builder producing a :class:`Document`.

    The HTML and XML parsers drive this builder through ``start``/``end``/
    ``text`` events.
    """

    def __init__(self, root_label: str = "#document") -> None:
        self._root = Node(root_label)
        self._stack: List[Node] = [self._root]
        self._finished = False

    @property
    def current(self) -> Node:
        return self._stack[-1]

    @property
    def depth(self) -> int:
        return len(self._stack) - 1

    def start(self, label: str, attributes: Optional[Dict[str, str]] = None) -> Node:
        """Open an element and make it the current node.

        The node keeps ``attributes`` itself: pass a dict that nothing edits
        afterwards.
        """
        node = Node(label, attributes=attributes)
        self._stack[-1].append_child(node)
        self._stack.append(node)
        return node

    def end(self, label: Optional[str] = None) -> Node:
        """Close the current element.

        If ``label`` is given and does not match the current element, open
        elements are popped until a match is found (this is the lenient
        behaviour needed for real-world HTML).
        """
        if len(self._stack) == 1:
            return self._root
        if label is None:
            return self._stack.pop()
        # Find the matching open element, if any.
        for position in range(len(self._stack) - 1, 0, -1):
            if self._stack[position].label == label:
                node = self._stack[position]
                del self._stack[position:]
                return node
        # No matching open tag: ignore the stray end tag.
        return self._stack[-1]

    def empty(self, label: str, attributes: Optional[Dict[str, str]] = None) -> Node:
        """Add a childless element without making it current (it keeps
        ``attributes`` itself, as :meth:`start` does)."""
        node = Node(label, attributes=attributes)
        self._stack[-1].append_child(node)
        return node

    def text(self, content: str) -> Optional[Node]:
        """Add a text node (skipped when the content is empty)."""
        if not content:
            return None
        node = Node("#text", text=content)
        self._stack[-1].append_child(node)
        return node

    def comment(self, content: str) -> Node:
        node = Node("#comment", text=content)
        self._stack[-1].append_child(node)
        return node

    def finish(self, url: Optional[str] = None) -> Document:
        """Close all open elements and return the finished document."""
        if self._finished:
            raise RuntimeError("builder already finished")
        self._finished = True
        self._stack = [self._root]
        return Document(self._root, url=url)


def random_tree(
    size: int,
    labels: Sequence[str] = ("a", "b", "c", "d"),
    max_children: int = 5,
    seed: int = 0,
) -> Document:
    """Generate a pseudo-random tree with exactly ``size`` nodes.

    Used by tests and benchmark workload generators.  Determinism is
    guaranteed by the explicit ``seed``.
    """
    import random as _random

    if size < 1:
        raise ValueError("size must be at least 1")
    rng = _random.Random(seed)
    root = Node(rng.choice(labels))
    open_nodes = [root]
    created = 1
    while created < size:
        parent = rng.choice(open_nodes)
        child = Node(rng.choice(labels))
        parent.append_child(child)
        created += 1
        open_nodes.append(child)
        if len(parent.children) >= max_children:
            open_nodes.remove(parent)
        # Keep the frontier bounded so the tree gets both depth and breadth.
        if len(open_nodes) > 64:
            open_nodes.pop(rng.randrange(len(open_nodes)))
            if not open_nodes:
                open_nodes.append(child)
    return Document(root)
