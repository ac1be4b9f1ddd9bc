"""Rendering documents to displayed text.

The visual wrapper builder (Section 3.2) maps a user's "mouse selection" on a
*rendered* page to a node of the parse tree.  To simulate that we need a
rendering that records, for every node, the character range it occupies in
the rendered text — :func:`render_text_with_spans` provides exactly that.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from ..tree.document import Document
from ..tree.node import Node

# Elements rendered as block-level (emit line breaks around their content).
BLOCK_ELEMENTS = frozenset(
    {
        "address", "article", "aside", "blockquote", "body", "div", "dl",
        "dd", "dt", "fieldset", "figure", "footer", "form", "h1", "h2", "h3",
        "h4", "h5", "h6", "header", "hr", "html", "li", "main", "nav", "ol",
        "p", "pre", "section", "table", "tbody", "td", "tfoot", "th", "thead",
        "tr", "ul", "#document",
    }
)

SKIPPED_ELEMENTS = frozenset({"script", "style", "head", "#comment"})


def render_text_with_spans(
    node_or_document: Union[Node, Document],
) -> Tuple[str, Dict[int, Tuple[int, int]]]:
    """Render to text and record each node's character span.

    Returns ``(text, spans)`` where ``spans[id(node)] = (start, end)`` gives
    the half-open character interval of the rendered text that the node's
    subtree produced.  Nodes that render nothing get an empty interval at
    their position.  The visual layer uses the spans to map a selected screen
    region back to the best-matching tree node.
    """
    root = node_or_document.root if isinstance(node_or_document, Document) else node_or_document
    parts: List[str] = []
    spans: Dict[int, Tuple[int, int]] = {}
    _render_node(root, parts, spans, 0)
    return "".join(parts), spans


def _render_node(
    node: Node,
    parts: List[str],
    spans: Dict[int, Tuple[int, int]],
    offset: int,
) -> int:
    if node.label in SKIPPED_ELEMENTS:
        spans[id(node)] = (offset, offset)
        return offset
    start = offset
    if node.label == "#text":
        text = " ".join(node.text.split())
        if text:
            if parts and not parts[-1].endswith(("\n", " ")):
                parts.append(" ")
                offset += 1
                start = offset
            parts.append(text)
            offset += len(text)
        spans[id(node)] = (start, offset)
        return offset
    is_block = node.label in BLOCK_ELEMENTS
    if is_block and parts and not parts[-1].endswith("\n"):
        parts.append("\n")
        offset += 1
        start = offset
    for child in node.children:
        offset = _render_node(child, parts, spans, offset)
    if is_block and parts and not parts[-1].endswith("\n"):
        parts.append("\n")
        offset += 1
    spans[id(node)] = (start, offset)
    return offset
