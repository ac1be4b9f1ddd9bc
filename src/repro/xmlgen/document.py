"""Lightweight XML document model used on the output side of wrapping.

The Lixto XML Designer / XML Transformer (Section 3.1) and the Transformation
Server (Section 5) exchange XML documents between components.  ``XmlElement``
is intentionally small: an element name, attributes, text, and children.  It
can be converted to/from the generic :class:`~repro.tree.document.Document`
model and serialised to markup.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..tree.document import Document
from ..tree.node import Node


class XmlElement:
    """A single XML element."""

    __slots__ = ("name", "attributes", "text", "children", "parent")

    def __init__(
        self,
        name: str,
        attributes: Optional[Dict[str, str]] = None,
        text: str = "",
    ) -> None:
        self.name = name
        self.attributes: Dict[str, str] = dict(attributes) if attributes else {}
        self.text = text
        self.children: List["XmlElement"] = []
        self.parent: Optional["XmlElement"] = None

    # -- construction ----------------------------------------------------
    def append(self, child: "XmlElement") -> "XmlElement":
        child.parent = self
        self.children.append(child)
        return child

    def add(
        self,
        name: str,
        text: str = "",
        attributes: Optional[Dict[str, str]] = None,
    ) -> "XmlElement":
        """Create, append and return a child element."""
        return self.append(XmlElement(name, attributes=attributes, text=text))

    # -- querying ----------------------------------------------------------
    def find(self, name: str) -> Optional["XmlElement"]:
        for child in self.children:
            if child.name == name:
                return child
        return None

    def find_all(self, name: str) -> List["XmlElement"]:
        return [child for child in self.children if child.name == name]

    def iter(self, name: Optional[str] = None) -> Iterator["XmlElement"]:
        """Iterate over this element and all descendants (preorder)."""
        stack = [self]
        while stack:
            node = stack.pop()
            if name is None or node.name == name:
                yield node
            stack.extend(reversed(node.children))

    def findtext(self, name: str, default: str = "") -> str:
        child = self.find(name)
        return child.full_text() if child is not None else default

    def full_text(self) -> str:
        parts = [self.text] if self.text else []
        for node in self.iter():
            if node is not self and node.text:
                parts.append(node.text)
        return "".join(parts)

    def get(self, attribute: str, default: str = "") -> str:
        return self.attributes.get(attribute, default)

    # -- misc ---------------------------------------------------------------
    def size(self) -> int:
        return sum(1 for _ in self.iter())

    def copy(self) -> "XmlElement":
        # The constructor already copies the attribute dict; children are
        # linked directly rather than through append().
        clone = XmlElement(self.name, self.attributes, self.text)
        children = clone.children
        for child in self.children:
            child_clone = child.copy()
            child_clone.parent = clone
            children.append(child_clone)
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        return f"XmlElement(<{self.name}> children={len(self.children)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XmlElement):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.text == other.text
            and self.children == other.children
        )

    def __hash__(self) -> int:  # content-based, used by change detection
        return hash((self.name, self.text, tuple(sorted(self.attributes.items())), len(self.children)))


def to_document(element: XmlElement) -> Document:
    """View an XML element tree as a generic tau_ur document."""
    root = _to_node(element)
    return Document(root)


def _to_node(element: XmlElement) -> Node:
    node = Node(element.name, attributes=element.attributes)
    if element.text:
        node.append_child(Node("#text", text=element.text))
    for child in element.children:
        node.append_child(_to_node(child))
    return node


def from_document(document: Document) -> XmlElement:
    """Convert a generic document into an XML element tree.

    Text nodes are folded into their parent's ``text``/tail-free model by
    concatenation (sufficient for the data-centric XML the wrappers emit).
    """
    return _from_node(document.root)


def _from_node(node: Node) -> XmlElement:
    element = XmlElement(node.label if node.label != "#document" else "document",
                         attributes=node.attributes)
    text_parts: List[str] = []
    for child in node.children:
        if child.label == "#text":
            text_parts.append(child.text)
        elif child.label == "#comment":
            continue
        else:
            element.append(_from_node(child))
    element.text = "".join(text_parts)
    return element
