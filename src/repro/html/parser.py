"""HTML to :class:`~repro.tree.document.Document` parsing.

The paper's wrappers operate on HTML parse trees.  lxml / BeautifulSoup are
not available in this offline environment, so the package tokenizes HTML
itself and produces the unranked ordered labelled trees used by every other
package.

Tokenizing is one ``re.finditer`` pass of ``_TOKEN`` over the markup.  Each
match is a run of text, a start tag with its attributes, an end tag, a
comment, a bogus comment, or a dropped construct (``<!DOCTYPE>``, ``<?pi>``,
``<![CDATA[...]]>``, ``</>``).  The raw text of ``script`` and ``style`` is
cut out by one search for its end tag, and an attribute list too long for
one match is read on by a loop; the pass then resumes.  The token rules
follow the WHATWG tokenizer
(https://html.spec.whatwg.org/multipage/parsing.html#tokenization):

* a ``<`` that starts no tag, comment or declaration is text;
* character references are decoded with :func:`html.unescape` in text and
  attribute values, so the legacy names without ``;`` decode too;
* attributes may be quoted, unquoted or valueless; names are lower-cased,
  and of duplicate attributes the last one wins;
* a tag cut off by the end of the input is dropped, and a comment cut off
  by it ends there.

Every pattern consumes each character in exactly one way, and a tag,
comment or declaration that has begun always matches, up to its ``>`` or
to the end of the input.  So the regex engine never backtracks over an
attribute list, and with repeated groups capped (``_CHUNK``) parsing stays
linear in the markup on hostile input.

Tree construction is deliberately forgiving: real-world HTML (and the
paper's screenshots show plenty of it) has unclosed ``<td>``/``<li>``/``<p>``
elements, void elements without slashes, and stray end tags.  The cleanup
rules below mirror the relevant parts of the WHATWG tree-construction
algorithm closely enough for wrapping purposes.
"""

from __future__ import annotations

import re
from html import unescape
from typing import Dict, List, Optional, Tuple

from ..tree.builder import TreeBuilder
from ..tree.document import Document

# Elements that never have content.
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

# When a start tag in the key set is seen and an element in the value set is
# open, that element is implicitly closed first.
IMPLIED_END_TAGS: Dict[str, frozenset] = {
    "li": frozenset({"li"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "p": frozenset({"p"}),
    "option": frozenset({"option"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "thead": frozenset({"tr", "td", "th"}),
    "tbody": frozenset({"tr", "td", "th", "thead"}),
    "tfoot": frozenset({"tr", "td", "th", "tbody"}),
}

# HTML whitespace (not Unicode's), as a character-class body.
_WS = "\\t\\n\\f\\r "

# An attribute is a name, then optionally ``=`` and a double-quoted,
# single-quoted or unquoted value.  An unterminated quote runs to the end of
# the input (the enclosing tag is then dropped).
_ATTRIBUTE_NAME = f"[^{_WS}/>][^{_WS}/=>]*"
_ATTRIBUTE_VALUE = f"\"[^\"]*\"?|'[^']*'?|[^{_WS}>]*"
_ATTRIBUTE_RE = re.compile(f"({_ATTRIBUTE_NAME})(?:[{_WS}]*=[{_WS}]*({_ATTRIBUTE_VALUE}))?")

# The regex engine keeps backtracking state for every pass of a repeated
# group, and on one tag or text run of ~100 k characters that state outgrows
# the caches: one doubling of the input then cost 3-7x the time (CPython
# 3.11).  Repeated groups are therefore capped at _CHUNK passes: a longer
# text run takes several matches (which join into one run), and a longer
# attribute list is read on by _MORE_ATTRIBUTES.
_CHUNK = 64

# One item of a start tag's attribute list: whitespace, an attribute, or a
# ``/`` not before ``>`` (skipped like whitespace).
_ATTRIBUTE_ITEMS = (
    f"(?:[{_WS}]+|/(?!>)|{_ATTRIBUTE_NAME}(?:[{_WS}]*=[{_WS}]*(?:{_ATTRIBUTE_VALUE}))?)"
    f"{{0,{_CHUNK}}}"
)
_MORE_ATTRIBUTES = re.compile(f"({_ATTRIBUTE_ITEMS})(/?>)?")

# A ``<`` that starts nothing: not followed by a letter, ``!``, ``?``, or
# ``/`` plus another character.
_BARE_LT = "<(?![a-zA-Z!?]|/.)"

_TOKEN = re.compile(
    # Text, bare ``<`` included.
    f"(?P<text>(?:[^<]|{_BARE_LT})[^<]*(?:{_BARE_LT}[^<]*){{0,{_CHUNK}}})"
    # A start tag: name, attribute items, then ``>`` or ``/>`` unless the
    # input (or the chunk of items) ends first.
    f"|(?P<start><(?P<name>[a-zA-Z][^{_WS}/>]*)(?P<area>{_ATTRIBUTE_ITEMS})(?P<close>/?>)?)"
    # An end tag; whatever follows its name up to ``>`` is ignored.
    f"|(?P<end></(?P<end_name>[a-zA-Z][^{_WS}/>]*)[^>]*(?P<end_close>>)?)"
    # A comment ends at ``-->`` or ``--!>``; ``<!-->`` and ``<!--->`` are
    # empty; at the end of the input a trailing ``-``/``--``/``--!`` is cut.
    "|(?P<comment><!--(?:-?>|(?P<data>.*?)(?:--!?>|(?:--!?|-)?\\Z)))"
    # Dropped: CDATA sections, doctypes, processing instructions and ``</>``.
    "|(?P<drop><!\\[CDATA\\[.*?(?:\\]\\]>|\\Z)|<!(?i:doctype)[^>]*>?|<\\?[^>]*>?|</>)"
    # Any other ``<!`` or ``</`` is a bogus comment up to the next ``>``.
    "|(?P<bogus><[!/][^>]*>?)",
    re.DOTALL,
)

# Raw-text elements: their content is text up to the matching end tag.
_RAW_TEXT_END = {
    name: re.compile(f"</{name}(?=[{_WS}/>])", re.IGNORECASE) for name in ("script", "style")
}


def _attributes(area: str) -> Dict[str, str]:
    attributes: Dict[str, str] = {}
    for name, value in _ATTRIBUTE_RE.findall(area):
        if value and value[0] in "\"'":
            value = value[1:-1]
        if "&" in value:
            value = unescape(value)
        attributes[name.lower()] = value
    return attributes


def _rest_of_tag(markup: str, area: str, position: int) -> Tuple[str, Optional[str], int]:
    """Read a start tag's attribute list on from ``position``: the whole
    list, the closing ``>`` or ``/>`` (None if the input ends first) and the
    position after the tag."""
    parts = [area]
    close = None
    while close is None and position < len(markup):
        more = _MORE_ATTRIBUTES.match(markup, position)
        parts.append(more.group(1))
        close = more.group(2)
        position = more.end()
    return "".join(parts), close, position


def _build(markup: str, builder: TreeBuilder, keep_whitespace_text: bool) -> None:
    """Feed the tokens of ``markup`` to ``builder``.

    Text is held back until the next node is created or an element is
    closed, so the text between two such events becomes one ``#text`` node
    even across dropped constructs and stray end tags (as WHATWG tree
    construction appends to a trailing text node).
    """
    open_labels: List[str] = []
    push, pop = open_labels.append, open_labels.pop
    start, end, empty, text = builder.start, builder.end, builder.empty, builder.text
    pending = ""
    # Where the pass restarts after reading past a token outside it (raw
    # text, or an attribute list longer than one match); None at the end.
    position: Optional[int] = 0
    while position is not None:
        tokens, position = _TOKEN.finditer(markup, position), None
        for match in tokens:
            kind = match.lastgroup
            if kind == "text":
                data = match.group()
                pending += unescape(data) if "&" in data else data
                continue
            if kind == "start":
                name, area, close = match.group("name", "area", "close")
                if close is None:
                    area, close, position = _rest_of_tag(markup, area, match.end())
                    if close is None:
                        break  # cut off by the end of the input
            elif kind == "end":
                name, close = match.group("end_name", "end_close")
                tag = name.lower()
                if close is None or tag in VOID_ELEMENTS or tag not in open_labels:
                    continue  # cut off, or nothing to close
            elif kind == "drop":
                continue
            if pending:
                if keep_whitespace_text or not pending.isspace():
                    text(pending)
                pending = ""
            if kind == "start":
                tag = name.lower()
                attributes = _attributes(area) if area else {}
                if close == "/>" or tag in VOID_ELEMENTS:
                    empty(tag, attributes)
                else:
                    implied = IMPLIED_END_TAGS.get(tag)
                    if implied:
                        while open_labels and open_labels[-1] in implied:
                            pop()
                            end()
                    start(tag, attributes)
                    push(tag)
                    raw_end = _RAW_TEXT_END.get(tag)
                    if raw_end is not None:
                        # The content is text; the pass resumes at its end tag.
                        tag_end = position or match.end()
                        end_match = raw_end.search(markup, tag_end)
                        position = end_match.start() if end_match else len(markup)
                        pending = markup[tag_end:position]
                if position is not None:
                    break
            elif kind == "end":
                # Pop up to and including the matching open element.
                while open_labels:
                    end()
                    if pop() == tag:
                        break
            elif kind == "comment":
                builder.comment(match.group("data") or "")
            else:  # a bogus comment
                data = match.group()
                builder.comment(data[2:-1] if data.endswith(">") else data[2:])
    if pending and (keep_whitespace_text or not pending.isspace()):
        text(pending)


def parse_html(
    markup: str,
    url: Optional[str] = None,
    keep_whitespace_text: bool = False,
) -> Document:
    """Parse an HTML string into a :class:`Document`.

    The returned document has a synthetic ``#document`` root whose children
    are the top-level nodes of the markup (typically a single ``html``
    element).  ``url`` is recorded on the document for crawling support.
    """
    builder = TreeBuilder(root_label="#document")
    _build(markup, builder, keep_whitespace_text)
    return builder.finish(url=url)


def parse_html_fragment(markup: str, keep_whitespace_text: bool = False) -> Document:
    """Parse an HTML fragment (no surrounding ``html``/``body`` required)."""
    return parse_html(markup, keep_whitespace_text=keep_whitespace_text)


def body_of(document: Document):
    """Return the ``body`` element of a parsed HTML document.

    Falls back to the document root's first element child when the markup had
    no explicit body.
    """
    body = document.find_first("body")
    if body is not None:
        return body
    for child in document.root.children:
        if child.label not in ("#text", "#comment"):
            return child
    return document.root
