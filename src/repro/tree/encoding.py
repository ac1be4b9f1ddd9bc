"""Binary (firstchild / nextsibling) encoding of unranked trees.

Figure 1(b) of the paper shows the classical encoding of an unranked ordered
tree as a binary tree: the left pointer of a node is its first child and the
right pointer is its next sibling.  The ranked tree-automata machinery in
``repro.automata`` runs on this encoding, which is what makes the
MSO <-> monadic datalog correspondence executable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .document import Document
from .node import Node


class BinaryNode:
    """A node of the firstchild/nextsibling encoding.

    ``left`` points to the encoded first child, ``right`` to the encoded next
    sibling.  ``source`` is the original unranked node.
    """

    __slots__ = ("label", "left", "right", "source")

    def __init__(self, label: str, source: Optional[Node] = None) -> None:
        self.label = label
        self.left: Optional["BinaryNode"] = None
        self.right: Optional["BinaryNode"] = None
        self.source = source

    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def iter_postorder(self):
        """Yield nodes in postorder (children before parents), iteratively."""
        stack: List[Tuple["BinaryNode", bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            stack.append((node, True))
            if node.right is not None:
                stack.append((node.right, False))
            if node.left is not None:
                stack.append((node.left, False))

    def size(self) -> int:
        return sum(1 for _ in self.iter_postorder())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinaryNode({self.label!r})"


def encode(document: Document) -> BinaryNode:
    """Encode ``document`` into its firstchild/nextsibling binary tree.

    The encoding preserves the node set: every original node appears exactly
    once, reachable through ``source``.
    """
    return _encode_node(document.root)


def _encode_node(node: Node) -> BinaryNode:
    # Iterative construction to support very deep / very wide documents.
    root_binary = BinaryNode(node.label, source=node)
    stack: List[Tuple[Node, BinaryNode]] = [(node, root_binary)]
    while stack:
        source, encoded = stack.pop()
        if source.children:
            previous: Optional[BinaryNode] = None
            for child in source.children:
                encoded_child = BinaryNode(child.label, source=child)
                if previous is None:
                    encoded.left = encoded_child
                else:
                    previous.right = encoded_child
                previous = encoded_child
                stack.append((child, encoded_child))
    return root_binary


def decode(binary_root: BinaryNode) -> Document:
    """Decode a firstchild/nextsibling binary tree back into a document.

    Inverse of :func:`encode` (up to attribute/text payloads, which the
    structural encoding does not carry; when ``source`` links are present the
    payloads are copied over).
    """
    root = _decoded_node(binary_root)
    _attach_children(root, binary_root)
    return Document(root)


def _decoded_node(binary: BinaryNode) -> Node:
    if binary.source is not None:
        return Node(
            binary.source.label,
            attributes=dict(binary.source.attributes),
            text=binary.source.text,
        )
    return Node(binary.label)


def _attach_children(parent: Node, binary_parent: BinaryNode) -> None:
    stack: List[Tuple[Node, BinaryNode]] = [(parent, binary_parent)]
    while stack:
        unranked, binary = stack.pop()
        child_binary = binary.left
        while child_binary is not None:
            child_unranked = _decoded_node(child_binary)
            unranked.append_child(child_unranked)
            stack.append((child_unranked, child_binary))
            child_binary = child_binary.right


def encoding_round_trips(document: Document) -> bool:
    """Check that encode followed by decode reproduces the same shape.

    Used by property-based tests.
    """
    decoded = decode(encode(document))
    return _same_shape(document.root, decoded.root)


def _same_shape(first: Node, second: Node) -> bool:
    stack = [(first, second)]
    while stack:
        a, b = stack.pop()
        if a.label != b.label or len(a.children) != len(b.children):
            return False
        stack.extend(zip(a.children, b.children))
    return True
