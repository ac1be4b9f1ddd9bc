"""Lightweight XML document model used on the output side of wrapping.

The Lixto XML Designer / XML Transformer (Section 3.1) and the Transformation
Server (Section 5) exchange XML documents between components.  ``XmlElement``
is intentionally small: an element name, attributes, text, and children, and
it is serialised to markup by :mod:`repro.xmlgen.serializer`.

An element keeps no parent pointer, so one subtree can hang under several
parents: Transformation Server stages share documents this way.  A shared
tree is frozen (:meth:`XmlElement.freeze`), so the read-only hand-over holds
in code; :meth:`XmlElement.copy` gives a caller a tree of its own to edit.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterator, List, Optional


class XmlElement:
    """A single XML element."""

    __slots__ = ("name", "attributes", "text", "children")

    #: Whether the element is read-only (see :meth:`freeze`).
    frozen = False

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

    # -- construction ----------------------------------------------------
    def append(self, child: "XmlElement") -> "XmlElement":
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
            if node.children:
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
        """A deep, editable copy (the constructor copies the attribute dict)."""
        clone = XmlElement(self.name, self.attributes, self.text)
        clone.children = [child.copy() for child in self.children]
        return clone

    def freeze(self) -> "XmlElement":
        """Make this tree read-only in place and return it.

        Every element becomes a :class:`FrozenXmlElement`: ``children`` a
        tuple, ``attributes`` a read-only mapping, and :meth:`append` or
        any field assignment raises.  The walk stops at subtrees that are
        already frozen, so freezing a new root over frozen children costs
        O(its children).
        """
        stack = [self]
        while stack:
            element = stack.pop()
            if element.frozen:
                continue
            element.children = children = tuple(element.children)
            attributes = element.attributes
            element.attributes = MappingProxyType(attributes) if attributes else _NO_ATTRIBUTES
            element.__class__ = FrozenXmlElement
            stack.extend(children)
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return f"XmlElement(<{self.name}> children={len(self.children)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XmlElement):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.text == other.text
            and tuple(self.children) == tuple(other.children)
        )

    def __hash__(self) -> int:  # content-based, consistent with __eq__
        return hash((self.name, self.text, tuple(sorted(self.attributes.items())), len(self.children)))


_NO_ATTRIBUTES = MappingProxyType({})


class FrozenXmlElement(XmlElement):
    """A read-only :class:`XmlElement`, made by :meth:`XmlElement.freeze`.

    A distinct class rather than a flag, so building an editable element
    pays for no check.
    """

    __slots__ = ()

    frozen = True

    def append(self, child: XmlElement) -> XmlElement:
        raise AttributeError(f"<{self.name}> is frozen: edit a copy()")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"<{self.name}> is frozen: edit a copy()")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"<{self.name}> is frozen: edit a copy()")
