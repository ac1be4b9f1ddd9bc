"""Path computation and generalisation for the Pattern Builder.

Given a parent node and a selected target node, the builder computes the tag
path between them (the ``pi`` of Section 3.2) and can *generalise* it — the
operation the paper describes for obtaining e.g. TMNF-style rules: replace the
concrete path by ``?`` followed by the target's tag.
"""

from __future__ import annotations

from typing import List, Optional

from ..elog.epath import AttributeCondition, ElementPath
from ..tree.node import Node


def path_between(parent: Node, target: Node) -> Optional[List[str]]:
    """The label path from ``parent`` (exclusive) to ``target`` (inclusive)."""
    if parent is target or not parent.is_ancestor_of(target):
        return None
    labels: List[str] = []
    node: Optional[Node] = target
    while node is not None and node is not parent:
        labels.append(node.label)
        node = node.parent
    labels.reverse()
    return labels


def exact_path(parent: Node, target: Node) -> ElementPath:
    """The fully concrete element path from ``parent`` to ``target``."""
    labels = path_between(parent, target)
    if labels is None:
        raise ValueError("target is not a descendant of the parent node")
    return ElementPath(steps=tuple(labels))


def generalized_path(parent: Node, target: Node) -> ElementPath:
    """The standard generalisation: ``?`` followed by the target's tag.

    This is the robust form the Pattern Builder proposes by default — it
    survives changes of the intermediate structure (Section 2.5's schema-less
    argument).
    """
    return ElementPath(steps=("?", target.label))


def suggest_conditions(target: Node, max_conditions: int = 3) -> List[AttributeCondition]:
    """Attribute conditions the builder offers for refining a filter.

    Class and id attributes come first (they are the most robust anchors),
    then other attributes, then a text condition.
    """
    suggestions: List[AttributeCondition] = []
    for attribute in ("class", "id"):
        if attribute in target.attributes:
            suggestions.append(AttributeCondition(attribute, target.attributes[attribute], "exact"))
    for attribute, value in target.attributes.items():
        if attribute in ("class", "id"):
            continue
        suggestions.append(AttributeCondition(attribute, value, "exact"))
    text = target.normalized_text()
    if text:
        word = text.split()[0]
        suggestions.append(AttributeCondition("elementtext", word, "substr"))
    return suggestions[:max_conditions]
