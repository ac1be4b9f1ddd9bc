"""XML serialisation and parsing for :class:`XmlElement` trees."""

from __future__ import annotations

import xml.etree.ElementTree as ElementTree
from typing import List
from xml.sax.saxutils import escape, quoteattr

from .document import XmlElement


def to_xml(element: XmlElement, indent: int = 2, declaration: bool = True) -> str:
    """Serialise an element tree to pretty-printed XML markup."""
    lines: List[str] = []
    if declaration:
        lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    _write(element, lines, 0, indent)
    return "\n".join(lines)


def _write(element: XmlElement, lines: List[str], depth: int, indent: int) -> None:
    pad = " " * (depth * indent)
    attributes = "".join(
        f" {name}={quoteattr(value)}" for name, value in element.attributes.items()
    )
    text = escape(element.text.strip()) if element.text else ""
    if not element.children:
        if text:
            lines.append(f"{pad}<{element.name}{attributes}>{text}</{element.name}>")
        else:
            lines.append(f"{pad}<{element.name}{attributes}/>")
        return
    lines.append(f"{pad}<{element.name}{attributes}>{text}")
    for child in element.children:
        _write(child, lines, depth + 1, indent)
    lines.append(f"{pad}</{element.name}>")


def to_compact_xml(element: XmlElement, declaration: bool = False) -> str:
    """Single-line serialisation: no indentation or line breaks."""
    parts: List[str] = []
    if declaration:
        parts.append('<?xml version="1.0"?>')
    _write_compact(element, parts)
    return "".join(parts)


def _write_compact(element: XmlElement, parts: List[str]) -> None:
    attributes = "".join(
        f" {name}={quoteattr(value)}" for name, value in element.attributes.items()
    )
    parts.append(f"<{element.name}{attributes}>")
    if element.text:
        parts.append(escape(element.text))
    for child in element.children:
        _write_compact(child, parts)
    parts.append(f"</{element.name}>")


def parse_xml(markup: str) -> XmlElement:
    """Parse XML markup into an :class:`XmlElement` tree (ElementTree-backed)."""
    etree_root = ElementTree.fromstring(markup)
    return _convert(etree_root)


def _convert(etree_element: ElementTree.Element) -> XmlElement:
    element = XmlElement(
        _local_name(etree_element.tag),
        attributes={_local_name(k): v for k, v in etree_element.attrib.items()},
        text=(etree_element.text or "").strip(),
    )
    for child in etree_element:
        converted = _convert(child)
        element.append(converted)
        if child.tail and child.tail.strip():
            element.text += " " + child.tail.strip()
    return element


def _local_name(tag: str) -> str:
    if tag.startswith("{"):
        return tag.split("}", 1)[1]
    return tag
