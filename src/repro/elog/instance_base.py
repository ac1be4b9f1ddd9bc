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

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..tree.document import Document
from ..tree.node import Node
from ..xmlgen.document import XmlElement
from .ast import ROOT_PATTERN


@dataclass
class PatternInstance:
    """One extracted instance of a pattern.

    An instance refers to a single document node (tree extraction), a *run*
    of consecutive sibling nodes (``nodes``, produced by ``subsq``), or a
    string (``value``, produced by ``subtext`` / ``subatt``).
    """

    pattern: str
    parent: Optional["PatternInstance"]
    node: Optional[Node] = None
    nodes: Optional[List[Node]] = None
    value: Optional[str] = None
    document: Optional[Document] = None
    bindings: Dict[str, object] = field(default_factory=dict)
    children: List["PatternInstance"] = field(default_factory=list)

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
        """Sort key approximating document order for mixed node/string instances."""
        members = self.member_nodes()
        if members:
            return (members[0].preorder_index, 0)
        if self.parent is not None:
            parent_members = self.parent.member_nodes()
            if parent_members:
                return (parent_members[0].preorder_index, 1)
        return (0, 1)

    def identity(self) -> Tuple:
        """Key used for duplicate elimination within one extraction run."""
        node_key = tuple(id(node) for node in self.member_nodes()) or None
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
            key=PatternInstance.anchor,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        payload = self.value if self.is_string_instance else f"<{self.node.label}>"
        return f"PatternInstance({self.pattern}, {payload!r}, children={len(self.children)})"


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
        return sorted(self._by_pattern.get(pattern, []), key=PatternInstance.anchor)

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
        label_for: Optional[Callable[[PatternInstance], str]] = None,
        include_attributes: bool = False,
    ) -> XmlElement:
        """Render the instance base as XML (the XML Designer + Transformer).

        ``auxiliary`` patterns are skipped: their children are promoted to the
        nearest non-auxiliary ancestor, exactly like auxiliary predicates in
        Section 2.1.  By default the pattern name is the element name; a leaf
        instance carries its text.
        """
        hidden = set(auxiliary) | {ROOT_PATTERN}
        output_root = XmlElement(root_name)

        def emit(instance: PatternInstance, parent_element: XmlElement) -> None:
            if instance.pattern in hidden:
                target = parent_element
            else:
                name = label_for(instance) if label_for is not None else instance.pattern
                target = parent_element.add(name)
                if include_attributes and instance.node is not None:
                    for key, value in instance.node.attributes.items():
                        target.attributes[key] = value
                if not instance.children:
                    target.text = instance.text()
            for child in sorted(instance.children, key=PatternInstance.anchor):
                emit(child, target)

        for root in self.roots:
            emit(root, output_root)
        return output_root
