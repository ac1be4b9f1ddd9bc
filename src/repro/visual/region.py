"""Mapping screen selections to document nodes.

Section 3.2: "By marking a region of an example Web document displayed on
screen using an input device such as a mouse, the node in the document tree
best matching the selected region can be robustly determined."

The GUI is simulated: a page is rendered to plain text with per-node
character spans (:func:`repro.html.render_text_with_spans`), a "mouse
selection" is a character interval of that text, and the best matching node
is the deepest node whose span covers the selection (ties broken towards the
smallest covering span).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..html.render import render_text_with_spans
from ..tree.document import Document
from ..tree.node import Node


@dataclass
class RenderedPage:
    """A document together with its text rendering and node spans."""

    document: Document
    text: str
    spans: Dict[int, Tuple[int, int]]

    @classmethod
    def render(cls, document: Document) -> "RenderedPage":
        text, spans = render_text_with_spans(document)
        return cls(document=document, text=text, spans=spans)

    # ------------------------------------------------------------------
    def node_for_selection(self, start: int, end: int) -> Optional[Node]:
        """The deepest node whose rendered span covers [start, end)."""
        if start > end:
            start, end = end, start
        best: Optional[Node] = None
        best_width = None
        for node in self.document:
            span = self.spans.get(id(node))
            if span is None:
                continue
            span_start, span_end = span
            if span_start <= start and end <= span_end and span_end > span_start:
                width = span_end - span_start
                if best_width is None or width <= best_width:
                    # prefer element nodes over bare text nodes of equal width
                    if (
                        best_width is not None
                        and width == best_width
                        and node.label == "#text"
                        and best is not None
                        and best.label != "#text"
                    ):
                        continue
                    best = node
                    best_width = width
        return best

    def select_text(self, fragment: str, occurrence: int = 0) -> Optional[Node]:
        """Simulate selecting the ``occurrence``-th occurrence of ``fragment``."""
        position = -1
        for _ in range(occurrence + 1):
            position = self.text.find(fragment, position + 1)
            if position < 0:
                return None
        return self.node_for_selection(position, position + len(fragment))

    def highlight(self, node: Node) -> str:
        """The rendered text of ``node`` (what the GUI would highlight)."""
        start, end = self.spans[id(node)]
        return self.text[start:end].strip()
