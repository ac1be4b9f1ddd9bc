"""The pattern instance base.

Section 3.1: "The Extractor [...] generates as its output a pattern instance
base, a data structure encoding the extracted instances as hierarchically
ordered trees and strings."

A :class:`PatternInstance` is either a tree instance (it refers to a document
node) or a string instance (produced by ``subtext`` / ``subatt``).  Instances
form a forest under the parent relation induced by the binary pattern
predicates; the synthetic *document* instances are the roots.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..tree.document import Document
from ..tree.node import Node
from ..xmlgen.document import XmlElement
from .ast import ROOT_PATTERN


class PatternInstance:
    """One extracted instance of a pattern.

    An instance refers to a single document node (tree extraction), a *run*
    of consecutive sibling nodes (``nodes``, produced by ``subsq``), or a
    string (``value``, produced by ``subtext`` / ``subatt``).

    ``node``, ``nodes`` and ``parent`` never change after construction, so
    the instance computes its document-order :meth:`anchor` once, here.
    """

    __slots__ = (
        "pattern", "parent", "node", "nodes", "value", "document",
        "bindings", "children", "_anchor",
    )

    def __init__(
        self,
        pattern: str,
        parent: Optional["PatternInstance"],
        node: Optional[Node] = None,
        nodes: Optional[List[Node]] = None,
        value: Optional[str] = None,
        document: Optional[Document] = None,
        bindings: Optional[Dict[str, object]] = None,
        children: Optional[List["PatternInstance"]] = None,
    ) -> None:
        self.pattern = pattern
        self.parent = parent
        self.node = node
        self.nodes = nodes
        self.value = value
        self.document = document
        self.bindings: Dict[str, object] = {} if bindings is None else bindings
        self.children: List[PatternInstance] = [] if children is None else children
        # The first member node's preorder index, else (for a string or an
        # empty run) the parent's first member's, marked as following it.
        first = nodes[0] if nodes else (node if nodes is None else None)
        if first is not None:
            self._anchor = (first.preorder_index, 0)
        elif parent is not None and parent._anchor[1] == 0:
            self._anchor = (parent._anchor[0], 1)
        else:
            self._anchor = (0, 1)

    # ------------------------------------------------------------------
    @property
    def is_string_instance(self) -> bool:
        return self.node is None and self.nodes is None

    @property
    def is_sequence_instance(self) -> bool:
        return self.nodes is not None

    def member_nodes(self) -> List[Node]:
        """The document nodes covered by the instance (empty for strings)."""
        if self.nodes is not None:
            return list(self.nodes)
        if self.node is not None:
            return [self.node]
        return []

    def text(self) -> str:
        """The textual value of the instance (node text or string value)."""
        nodes = self.nodes
        if nodes is None:
            node = self.node
            return node.normalized_text() if node is not None else self.value or ""
        if not nodes:
            return self.value or ""
        return " ".join(text for text in (node.normalized_text() for node in nodes) if text)

    def anchor(self) -> Tuple[int, int]:
        """Sort key approximating document order for mixed node/string
        instances (computed once, at construction)."""
        return self._anchor

    def identity(self) -> Tuple:
        """Key used for duplicate elimination within one extraction run."""
        nodes = self.nodes
        if nodes:
            node_key: Optional[Tuple[int, ...]] = tuple(map(id, nodes))
        elif nodes is None and self.node is not None:
            node_key = (id(self.node),)
        else:
            node_key = None
        parent_key = id(self.parent) if self.parent is not None else None
        return (self.pattern, parent_key, node_key, self.value)

    # ------------------------------------------------------------------
    def add_child(self, child: "PatternInstance") -> "PatternInstance":
        self.children.append(child)
        return child

    def iter_descendants(self) -> Iterator["PatternInstance"]:
        stack = list(self.children)
        while stack:
            instance = stack.pop()
            yield instance
            stack.extend(instance.children)

    def find_all(self, pattern: str) -> List["PatternInstance"]:
        return sorted(
            (inst for inst in self.iter_descendants() if inst.pattern == pattern),
            key=by_anchor,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        payload = self.value if self.is_string_instance else f"<{self.node.label}>"
        return f"PatternInstance({self.pattern}, {payload!r}, children={len(self.children)})"


#: The sort key of document order: an instance's stored anchor.
by_anchor = operator.attrgetter("_anchor")


class PatternInstanceBase:
    """The forest of extracted pattern instances of one extraction run."""

    def __init__(self) -> None:
        self.roots: List[PatternInstance] = []
        self._by_pattern: Dict[str, List[PatternInstance]] = {}
        # The single nodes of each pattern's tree instances, for O(1)
        # pattern-reference tests.
        self._nodes_by_pattern: Dict[str, Set[Node]] = {}
        self._seen: Set[Tuple] = set()

    # -- construction -----------------------------------------------------
    def add_document_root(self, document: Document, url: Optional[str] = None) -> PatternInstance:
        instance = PatternInstance(
            pattern=ROOT_PATTERN,
            parent=None,
            node=document.root,
            document=document,
            value=url or document.url,
        )
        self.roots.append(instance)
        self._register(instance)
        return instance

    def add_instance(self, instance: PatternInstance) -> Optional[PatternInstance]:
        """Register ``instance`` (and attach to its parent); returns None when
        an identical instance was already present (duplicate elimination)."""
        key = instance.identity()
        if key in self._seen:
            return None
        self._seen.add(key)
        if instance.parent is not None:
            instance.parent.add_child(instance)
        else:
            self.roots.append(instance)
        self._register(instance)
        return instance

    def _register(self, instance: PatternInstance) -> None:
        self._by_pattern.setdefault(instance.pattern, []).append(instance)
        if instance.node is not None:
            self._nodes_by_pattern.setdefault(instance.pattern, set()).add(instance.node)

    # -- queries --------------------------------------------------------------
    def instances_of(self, pattern: str) -> List[PatternInstance]:
        return sorted(self._by_pattern.get(pattern, []), key=by_anchor)

    def patterns(self) -> List[str]:
        return sorted(self._by_pattern)

    def nodes_of(self, pattern: str) -> List[Node]:
        return [
            instance.node
            for instance in self.instances_of(pattern)
            if instance.node is not None
        ]

    def values_of(self, pattern: str) -> List[str]:
        return [instance.text() for instance in self.instances_of(pattern)]

    def count(self, pattern: Optional[str] = None) -> int:
        if pattern is None:
            return sum(len(instances) for instances in self._by_pattern.values())
        return len(self._by_pattern.get(pattern, []))

    def node_is_instance_of(self, pattern: str, node: Node) -> bool:
        return node in self._nodes_by_pattern.get(pattern, ())

    def __len__(self) -> int:
        return self.count()

    # -- output ---------------------------------------------------------------
    def to_xml(
        self,
        root_name: str = "result",
        auxiliary: Iterable[str] = (),
    ) -> XmlElement:
        """Render the instance base as XML (the XML Designer + Transformer).

        ``auxiliary`` patterns are skipped: their children are promoted to the
        nearest non-auxiliary ancestor, exactly like auxiliary predicates in
        Section 2.1.  The pattern name is the element name; a leaf instance
        carries its text.
        """
        hidden = set(auxiliary) | {ROOT_PATTERN}
        output_root = XmlElement(root_name)

        def emit(instance: PatternInstance, parent_element: XmlElement) -> None:
            if instance.pattern in hidden:
                target = parent_element
            else:
                target = parent_element.add(instance.pattern)
                if not instance.children:
                    target.text = instance.text()
            for child in sorted(instance.children, key=by_anchor):
                emit(child, target)

        for root in self.roots:
            emit(root, output_root)
        return output_root
