"""Nodes of unranked ordered labelled trees.

The paper (Section 2.2) models documents as unranked ordered trees over a
finite alphabet of labels.  Text and attribute values are, in the formal
model, encoded as character subtrees; for practicality this implementation
keeps text and attributes as node payloads while still exposing the purely
structural view required by the theory packages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

if TYPE_CHECKING:
    from .document import Document


class Node:
    """A single node of an unranked ordered labelled tree.

    Attributes
    ----------
    label:
        The node label (for HTML documents: the lowercase tag name, or the
        pseudo-labels ``#text`` and ``#comment`` for character data).
    attributes:
        Mapping of attribute names to string values (empty for text nodes).
        The node keeps the dict it is given, without a copy: a caller hands
        over a dict that it no longer edits (the HTML tokenizer builds a
        fresh one per element).
    text:
        Character data carried by the node itself.  For element nodes this is
        empty; the textual content of an element is obtained with
        :meth:`text_content`.

    A tree is assembled with :meth:`append_child` and then wrapped in a
    :class:`~repro.tree.document.Document`, which every node of the tree
    then references as :attr:`document`.  From then on every field is
    read-only: the document's indexes and every cache keyed by its content
    assume the tree never changes, and :meth:`append_child` refuses an
    indexed node.
    """

    __slots__ = (
        "label",
        "attributes",
        "text",
        "parent",
        "children",
        "_index_in_parent",
        "_preorder",
        "_postorder",
        "_subtree_end",
        "document",
    )

    def __init__(
        self,
        label: str,
        attributes: Optional[Dict[str, str]] = None,
        text: str = "",
    ) -> None:
        self.label = label
        self.attributes: Dict[str, str] = attributes if attributes is not None else {}
        self.text = text
        self.parent: Optional[Node] = None
        self.children: List[Node] = []
        self._index_in_parent: int = -1
        # Filled in when a Document is built; -1 means "not in a Document".
        self._preorder: int = -1
        self._postorder: int = -1
        self._subtree_end: int = -1
        self.document: Optional["Document"] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append_child(self, child: "Node") -> "Node":
        """Attach ``child`` as the new rightmost child and return it.

        Only a tree not yet wrapped in a
        :class:`~repro.tree.document.Document` can grow: a built document is
        never edited.
        """
        if self._preorder >= 0 or child._preorder >= 0:
            raise ValueError("node belongs to a built Document, which is immutable")
        if child.parent is not None:
            raise ValueError("node already has a parent")
        child.parent = self
        child._index_in_parent = len(self.children)
        self.children.append(child)
        return child

    # ------------------------------------------------------------------
    # Structural accessors (the tau_ur relations, node-local view)
    # ------------------------------------------------------------------
    @property
    def index_in_parent(self) -> int:
        """Zero-based position among the parent's children (-1 for a root)."""
        return self._index_in_parent

    @property
    def next_sibling(self) -> Optional["Node"]:
        if self.parent is None:
            return None
        position = self._index_in_parent + 1
        if position < len(self.parent.children):
            return self.parent.children[position]
        return None

    @property
    def previous_sibling(self) -> Optional["Node"]:
        if self.parent is None or self._index_in_parent == 0:
            return None
        return self.parent.children[self._index_in_parent - 1]

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def iter_preorder(self) -> Iterator["Node"]:
        """Yield this node and all descendants in document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_descendants(self) -> Iterator["Node"]:
        """Yield all proper descendants in document order."""
        iterator = self.iter_preorder()
        next(iterator)
        yield from iterator

    def iter_ancestors(self) -> Iterator["Node"]:
        """Yield all proper ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def iter_following_siblings(self) -> Iterator["Node"]:
        node = self.next_sibling
        while node is not None:
            yield node
            node = node.next_sibling

    def iter_preceding_siblings(self) -> Iterator["Node"]:
        node = self.previous_sibling
        while node is not None:
            yield node
            node = node.previous_sibling

    # ------------------------------------------------------------------
    # Content helpers
    # ------------------------------------------------------------------
    def text_content(self) -> str:
        """Concatenation of all text carried by this subtree, in order."""
        children = self.children
        if not children:
            return self.text
        if len(children) == 1 and not self.text and not children[0].children:
            return children[0].text  # an element around one text node
        parts: List[str] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.text:
                parts.append(node.text)
            if node.children:
                stack.extend(reversed(node.children))
        return "".join(parts)

    def normalized_text(self) -> str:
        """Whitespace-normalised :meth:`text_content`."""
        return " ".join(self.text_content().split())

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted at this node."""
        return sum(1 for _ in self.iter_preorder())

    def depth(self) -> int:
        """Number of edges from the root to this node."""
        return sum(1 for _ in self.iter_ancestors())

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    @property
    def preorder_index(self) -> int:
        """Position in document order (-1 until the node is in a Document)."""
        return self._preorder

    @property
    def postorder_index(self) -> int:
        return self._postorder

    @property
    def subtree_end(self) -> int:
        """One past the preorder index of the last node of this subtree.

        The subtree occupies the document-order positions
        ``[preorder_index, subtree_end)`` (-1 until the node is in a Document).
        """
        return self._subtree_end

    def is_ancestor_of(self, other: "Node") -> bool:
        """True iff this node is a proper ancestor of ``other``.

        Uses preorder/postorder intervals when available (O(1)), otherwise
        walks ``other``'s ancestor chain.
        """
        if self is other:
            return False
        if self._preorder >= 0 and other._preorder >= 0:
            return (
                self._preorder < other._preorder
                and self._postorder > other._postorder
            )
        return any(ancestor is self for ancestor in other.iter_ancestors())

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.label == "#text":
            snippet = self.text[:30].replace("\n", "\\n")
            return f"Node(#text {snippet!r})"
        return f"Node(<{self.label}> children={len(self.children)})"
