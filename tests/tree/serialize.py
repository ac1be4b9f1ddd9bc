"""Structural views of trees for tests: an s-expression of the labels (two
trees have the same shape iff their s-expressions are equal) and a nested
dict that rebuilds a bare :class:`~repro.tree.node.Node` tree, one never
indexed into a ``Document``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

from repro.tree.document import Document
from repro.tree.node import Node


def to_sexpr(node_or_document: Union[Node, Document]) -> str:
    """Compact s-expression of the structural tree (labels only)."""
    node = _root_of(node_or_document)
    parts: List[str] = []
    _sexpr(node, parts)
    return "".join(parts)


def _sexpr(node: Node, parts: List[str]) -> None:
    stack: List[Any] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        if item.children:
            parts.append(f"({item.label}")
            stack.append(")")
            for child in reversed(item.children):
                stack.append(child)
                stack.append(" ")
        else:
            label = item.label
            if label == "#text":
                label = f"'{item.text}'"
            parts.append(label)


def to_dict(node_or_document: Union[Node, Document]) -> Dict[str, Any]:
    """Nested dictionary representation (JSON serialisable)."""
    root = _root_of(node_or_document)
    result: Dict[str, Any] = _node_dict(root)
    stack: List[tuple] = [(root, result)]
    while stack:
        node, node_dict = stack.pop()
        children = []
        for child in node.children:
            child_dict = _node_dict(child)
            children.append(child_dict)
            stack.append((child, child_dict))
        if children:
            node_dict["children"] = children
    return result


def _node_dict(node: Node) -> Dict[str, Any]:
    result: Dict[str, Any] = {"label": node.label}
    if node.attributes:
        result["attributes"] = dict(node.attributes)
    if node.text:
        result["text"] = node.text
    return result


def from_dict(data: Dict[str, Any]) -> Node:
    """Inverse of :func:`to_dict`."""
    node = Node(
        data["label"],
        attributes=dict(data.get("attributes") or {}),
        text=data.get("text", ""),
    )
    stack: List[tuple] = [(node, data)]
    while stack:
        parent_node, parent_data = stack.pop()
        for child_data in parent_data.get("children", []):
            child_node = Node(
                child_data["label"],
                attributes=dict(child_data.get("attributes") or {}),
                text=child_data.get("text", ""),
            )
            parent_node.append_child(child_node)
            stack.append((child_node, child_data))
    return node


def _root_of(node_or_document: Union[Node, Document]) -> Node:
    if isinstance(node_or_document, Document):
        return node_or_document.root
    return node_or_document
