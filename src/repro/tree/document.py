"""The :class:`Document` wrapper: an unranked ordered tree plus indexes.

A ``Document`` is the Python counterpart of the relational structure

    t_ur = <dom, root, leaf, (label_a), firstchild, nextsibling, lastsibling>

from Section 2.2 of the paper: one fixed structure.  It owns a root
:class:`~repro.tree.node.Node` and computes, once at construction, the
document-order indexes needed for efficient axis computation (preorder /
postorder numbering, subtree ends, label index).  A built document is a
value: its tree is never edited afterwards (``Node.append_child`` refuses
an indexed node), so the indexes and any key derived from them stay valid
for the document's lifetime.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from .node import Node


class Document:
    """An immutable unranked ordered labelled tree with document-order indexes.

    The tree under ``root`` is assembled first (``Node.append_child``) and
    indexed once here; from then on neither the tree nor the indexes
    change.  Caches that key a document by content read
    :func:`repro.datalog.tree_edb.document_key`, which builds the key on
    first use and keeps it in ``_cache_key``.
    """

    __slots__ = ("root", "url", "_nodes", "_by_label", "_cache_key")

    #: What :meth:`label_column` returns for a label the document lacks.
    _NO_COLUMN: Tuple[List[Node], List[int]] = ([], [])

    def __init__(self, root: Node, url: Optional[str] = None) -> None:
        if root.parent is not None:
            raise ValueError("document root must not have a parent")
        self.root = root
        self.url = url
        self._cache_key: Any = None
        self._index()

    def _index(self) -> None:
        """Number the nodes in document order and build the label index.

        Every node gets its back-reference :attr:`Node.document`, and every
        label one pair of parallel lists: its nodes in document order and
        their preorder numbers (the column :meth:`label_column` bisects).
        """
        nodes: List[Node] = []
        by_label: Dict[str, Tuple[List[Node], List[int]]] = {}

        # Iterative pre/post numbering to avoid recursion limits on deep
        # documents.  At a node's post-visit every node of its subtree has
        # taken a preorder number, so the preorder counter is its subtree end.
        counter_pre = 0
        counter_post = 0
        stack: List[Tuple[Node, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                node._postorder = counter_post
                node._subtree_end = counter_pre
                counter_post += 1
                continue
            node._preorder = counter_pre
            node.document = self
            nodes.append(node)
            column = by_label.get(node.label)
            if column is None:
                column = by_label[node.label] = ([], [])
            column[0].append(node)
            column[1].append(counter_pre)
            counter_pre += 1
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))

        self._nodes = nodes
        self._by_label = by_label

    # ------------------------------------------------------------------
    # Domain and relations of tau_ur
    # ------------------------------------------------------------------
    @property
    def dom(self) -> List[Node]:
        """All nodes in document order."""
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def nodes_with_label(self, label: str) -> List[Node]:
        """All nodes carrying ``label``, in document order."""
        return list(self.label_column(label)[0])

    def label_column(self, label: str) -> Tuple[List[Node], List[int]]:
        """The nodes carrying ``label`` in document order, and their preorder
        numbers (ascending).

        Both lists are the index itself, shared and never to be edited.  The
        numbering is exact, so the descendants of ``p`` carrying ``label``
        are ``nodes[lo:hi]`` for ``lo = bisect_right(preorders,
        p.preorder_index)`` and ``hi = bisect_left(preorders, p.subtree_end)``
        (the region encoding of Grust, SIGMOD 2002).
        """
        return self._by_label.get(label, self._NO_COLUMN)

    def labels(self) -> Set[str]:
        """The set of labels occurring in the document (the alphabet used)."""
        return set(self._by_label)

    def node_at(self, preorder_index: int) -> Node:
        return self._nodes[preorder_index]

    # ------------------------------------------------------------------
    # Queries used throughout the code base
    # ------------------------------------------------------------------
    def find_all(self, label: str) -> List[Node]:
        return self.nodes_with_label(label)

    def find_first(self, label: str) -> Optional[Node]:
        nodes = self.label_column(label)[0]
        return nodes[0] if nodes else None

    # ------------------------------------------------------------------
    # Statistics / debugging
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """The maximum depth of any node."""
        best = 0
        depths: Dict[int, int] = {self.root.preorder_index: 0}
        for node in self._nodes[1:]:
            depth = depths[node.parent.preorder_index] + 1
            depths[node.preorder_index] = depth
            if depth > best:
                best = depth
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Document(nodes={len(self._nodes)}, root=<{self.root.label}>)"
