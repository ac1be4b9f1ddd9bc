"""HTML substrate: parsing markup into tau_ur documents and rendering them
as displayed text."""

from .parser import VOID_ELEMENTS, parse_html
from .render import render_text_with_spans

__all__ = [
    "VOID_ELEMENTS",
    "parse_html",
    "render_text_with_spans",
]
