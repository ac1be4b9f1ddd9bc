"""Reference oracle: HTML parsing on the standard library's ``HTMLParser``.

The differential suites check :func:`repro.html.parse_html` against this
parser.  It is the event handler the package used before it had its own
tokenizer: ``html.parser.HTMLParser`` finds the tags, and the handlers
apply the same ``VOID_ELEMENTS`` / ``IMPLIED_END_TAGS`` rules to a
:class:`TreeBuilder`.  It shares nothing with the tokenizer beyond those
two tables and the builder.

One change from the handler the package used to ship: consecutive
``handle_data`` calls are buffered into one text run, which is flushed
when a node is created or an element is closed.  The stdlib splits a run
at a bare ``<``; the tokenizer (like the WHATWG tree builder, which
appends to a trailing text node) keeps one ``#text`` node per run, also
across dropped declarations and stray end tags.

The stdlib's behaviour on malformed markup differs between Python
versions (comment and script end detection, character references
without ``;``, CDATA sections), so tests compare against this oracle only
on markup where those versions agree and pin explicit trees elsewhere.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import List, Optional, Tuple

from repro.html.parser import IMPLIED_END_TAGS, VOID_ELEMENTS
from repro.tree.builder import TreeBuilder
from repro.tree.document import Document


class _DocumentHTMLParser(HTMLParser):
    """Stdlib-based event source feeding a :class:`TreeBuilder`."""

    def __init__(self, keep_whitespace_text: bool = False) -> None:
        super().__init__(convert_charrefs=True)
        self.builder = TreeBuilder(root_label="#document")
        self.keep_whitespace_text = keep_whitespace_text
        self._open_labels: List[str] = []
        self._pending: List[str] = []

    # -- start / end tags ------------------------------------------------
    def handle_starttag(self, tag: str, attrs: List[Tuple[str, Optional[str]]]) -> None:
        self._flush_text()
        tag = tag.lower()
        attributes = {name: (value if value is not None else "") for name, value in attrs}
        self._close_implied(tag)
        if tag in VOID_ELEMENTS:
            self.builder.empty(tag, attributes)
            return
        self.builder.start(tag, attributes)
        self._open_labels.append(tag)

    def handle_startendtag(self, tag: str, attrs: List[Tuple[str, Optional[str]]]) -> None:
        self._flush_text()
        tag = tag.lower()
        attributes = {name: (value if value is not None else "") for name, value in attrs}
        self.builder.empty(tag, attributes)

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag in VOID_ELEMENTS:
            return
        if tag in self._open_labels:
            self._flush_text()
            # Pop up to and including the matching open element.
            while self._open_labels:
                closed = self._open_labels.pop()
                self.builder.end()
                if closed == tag:
                    break
        # A stray end tag with no matching start tag is silently ignored.

    def _close_implied(self, incoming_tag: str) -> None:
        implied = IMPLIED_END_TAGS.get(incoming_tag)
        if not implied:
            return
        while self._open_labels and self._open_labels[-1] in implied:
            self._open_labels.pop()
            self.builder.end()

    # -- character data ----------------------------------------------------
    def handle_data(self, data: str) -> None:
        self._pending.append(data)

    def _flush_text(self) -> None:
        data = "".join(self._pending)
        self._pending.clear()
        if not self.keep_whitespace_text and not data.strip():
            return
        self.builder.text(data)

    def handle_comment(self, data: str) -> None:
        self._flush_text()
        self.builder.comment(data)

    def handle_decl(self, decl: str) -> None:  # <!DOCTYPE ...>
        return

    def error(self, message: str) -> None:  # pragma: no cover - py<3.10 shim
        return


def oracle_parse_html(
    markup: str,
    url: Optional[str] = None,
    keep_whitespace_text: bool = False,
) -> Document:
    """Parse ``markup`` with the stdlib-based reference parser."""
    parser = _DocumentHTMLParser(keep_whitespace_text=keep_whitespace_text)
    parser.feed(markup)
    parser.close()
    parser._flush_text()
    return parser.builder.finish(url=url)


def tree_shape(document: Document) -> List[Tuple[str, Tuple[Tuple[str, str], ...], str, int]]:
    """Each node's label, sorted attributes, text and parent position, in
    document order: two documents with equal shapes are the same tree."""
    position = {id(node): index for index, node in enumerate(document.dom)}
    return [
        (
            node.label,
            tuple(sorted(node.attributes.items())),
            node.text,
            position[id(node.parent)] if node.parent is not None else -1,
        )
        for node in document.dom
    ]
