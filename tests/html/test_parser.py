"""Unit tests for the HTML parser substrate."""

from __future__ import annotations

from repro.html import body_of, parse_html, parse_html_fragment, to_html
from repro.html.render import render_text, render_text_with_spans

from .oracle import tree_shape


def test_parse_simple_document(simple_html):
    assert simple_html.find_first("table") is not None
    rows = simple_html.find_all("tr")
    assert len(rows) == 3
    anchors = simple_html.find_all("a")
    assert [a.normalized_text() for a in anchors] == ["Book One", "Book Two", "Book Three"]


def test_attributes_are_lowercased_tags_preserved_values():
    doc = parse_html('<DIV CLASS="Big" data-x="1">t</DIV>')
    div = doc.find_first("div")
    assert div is not None
    assert div.get_attribute("class") == "Big"
    assert div.get_attribute("data-x") == "1"


def test_void_elements_do_not_swallow_content():
    doc = parse_html("<p>before<br>after<img src='x.png'>end</p>")
    p = doc.find_first("p")
    # The text nodes stay siblings of the void elements instead of being
    # swallowed as their children.
    assert [t.text for t in p.children if t.label == "#text"] == ["before", "after", "end"]
    assert doc.find_first("br").is_leaf
    assert doc.find_first("br").parent is p
    assert doc.find_first("img").get_attribute("src") == "x.png"


def test_unclosed_table_cells_are_closed_implicitly():
    doc = parse_html("<table><tr><td>one<td>two<tr><td>three</table>")
    rows = doc.find_all("tr")
    assert len(rows) == 2
    assert [len(row.children) for row in rows] == [2, 1]
    cells = doc.find_all("td")
    assert [cell.normalized_text() for cell in cells] == ["one", "two", "three"]


def test_unclosed_list_items():
    doc = parse_html("<ul><li>a<li>b<li>c</ul>")
    assert len(doc.find_all("li")) == 3
    # items must be siblings, not nested
    items = doc.find_all("li")
    assert all(item.parent.label == "ul" for item in items)


def test_nested_paragraph_closes_previous():
    doc = parse_html("<div><p>one<p>two</div>")
    paragraphs = doc.find_all("p")
    assert len(paragraphs) == 2
    assert all(p.parent.label == "div" for p in paragraphs)


def test_stray_end_tag_is_ignored():
    doc = parse_html("<div></span><b>x</b></div>")
    assert doc.find_first("b").normalized_text() == "x"


def test_comments_become_comment_nodes():
    doc = parse_html("<div><!-- hidden -->shown</div>")
    comments = doc.find_all("#comment")
    assert len(comments) == 1
    assert comments[0].text.strip() == "hidden"


def test_whitespace_only_text_skipped_by_default():
    doc = parse_html("<div>\n   <span>x</span>\n</div>")
    texts = doc.find_all("#text")
    assert [t.text for t in texts] == ["x"]
    kept = parse_html("<div>\n   <span>x</span>\n</div>", keep_whitespace_text=True)
    assert len(kept.find_all("#text")) == 3


def test_entities_are_decoded():
    doc = parse_html("<p>fish &amp; chips &euro;5</p>")
    assert doc.find_first("p").normalized_text() == "fish & chips €5"


def test_fragment_parsing():
    doc = parse_html_fragment("<td>cell</td>")
    assert doc.find_first("td").normalized_text() == "cell"


def test_body_of_returns_body_or_first_element(simple_html):
    assert body_of(simple_html).label == "body"
    fragment = parse_html_fragment("<div>x</div>")
    assert body_of(fragment).label == "div"


def test_url_is_recorded(simple_html):
    assert simple_html.url == "http://example.test/books"


def test_to_html_round_trip_preserves_structure(simple_html):
    markup = to_html(simple_html)
    reparsed = parse_html(markup)
    assert len(reparsed.find_all("tr")) == 3
    assert reparsed.find_first("a").get_attribute("href") == "/b/1"


def test_to_html_escapes_attribute_values():
    doc = parse_html('<a href="/x?a=1&amp;b=2" title=\'say "hi"\'>t</a>')
    markup = to_html(doc)
    assert "&amp;" in markup
    assert "&quot;" in markup


def test_render_text_blocks_and_inline(simple_html):
    text = render_text(simple_html)
    assert "Books" in text
    assert "Book One" in text
    # block elements produce line structure
    assert text.index("Books") < text.index("Book One")


def test_render_text_spans_cover_nodes(simple_html):
    text, spans = render_text_with_spans(simple_html)
    anchor = simple_html.find_first("a")
    start, end = spans[id(anchor)]
    assert text[start:end].strip() == "Book One"
    table = simple_html.find_first("table")
    t_start, t_end = spans[id(table)]
    assert t_start <= start and end <= t_end


def test_script_and_style_not_rendered():
    doc = parse_html("<body><script>var x=1;</script><p>visible</p></body>")
    text = render_text(doc)
    assert "visible" in text
    assert "var x" not in text


# -- tokenizer edge cases (WHATWG tokenization, pinned trees) ----------------


def shape(markup: str, keep_whitespace_text: bool = False):
    return tree_shape(parse_html(markup, keep_whitespace_text=keep_whitespace_text))[1:]


def test_a_bare_less_than_stays_in_one_text_node():
    assert shape("<p>a < b</p>") == [("p", (), "", 0), ("#text", (), "a < b", 1)]
    assert shape("1 <2 <= 3<") == [("#text", (), "1 <2 <= 3<", 0)]
    assert shape("<p>x</") == [("p", (), "", 0), ("#text", (), "x</", 1)]
    assert shape("<p> < </p>") == [("p", (), "", 0), ("#text", (), " < ", 1)]


def test_a_text_run_continues_across_stray_end_tags_and_dropped_constructs():
    assert shape("<p>a</span>b<?pi>c</>d</br>e</p>") == [
        ("p", (), "", 0),
        ("#text", (), "abcde", 1),
    ]


def test_an_unterminated_comment_ends_at_the_end_of_input():
    assert shape("<p>x<!-- open") == [
        ("p", (), "", 0),
        ("#text", (), "x", 1),
        ("#comment", (), " open", 1),
    ]
    assert shape("<!--a--") == [("#comment", (), "a", 0)]


def test_comment_ends_and_abrupt_comments():
    assert shape("<!--a--!>b<!---->c") == [
        ("#comment", (), "a", 0),
        ("#text", (), "b", 0),
        ("#comment", (), "", 0),
        ("#text", (), "c", 0),
    ]
    assert shape("<!-->x<!--->") == [
        ("#comment", (), "", 0),
        ("#text", (), "x", 0),
        ("#comment", (), "", 0),
    ]
    assert shape("<!--a--b-->") == [("#comment", (), "a--b", 0)]


def test_bogus_comments():
    assert shape("<!x>y</1 z>") == [
        ("#comment", (), "x", 0),
        ("#text", (), "y", 0),
        ("#comment", (), "1 z", 0),
    ]


def test_unterminated_tags_at_end_of_input_are_dropped():
    assert shape('<p>x<a href="y') == [("p", (), "", 0), ("#text", (), "x", 1)]
    assert shape("<p>x<a b") == [("p", (), "", 0), ("#text", (), "x", 1)]
    assert shape("<p>x</p") == [("p", (), "", 0), ("#text", (), "x", 1)]


def test_unquoted_valueless_and_duplicate_attributes():
    assert shape("<TD NoWrap Class=big class='last' data-x = 1 href=/a/b/>t") == [
        (
            "td",
            (("class", "last"), ("data-x", "1"), ("href", "/a/b/"), ("nowrap", "")),
            "",
            0,
        ),
        ("#text", (), "t", 1),
    ]
    assert shape('<a b="1"c=\'2\'/d>') == [("a", (("b", "1"), ("c", "2"), ("d", "")), "", 0)]


def test_self_closing_tags_are_empty_elements():
    assert shape("<br/><p/>q<img src=x />") == [
        ("br", (), "", 0),
        ("p", (), "", 0),
        ("#text", (), "q", 0),
        ("img", (("src", "x"),), "", 0),
    ]


def test_character_references_without_semicolons_are_decoded():
    # The stdlib's handling of these varies across Python versions.  Only
    # the legacy names decode without ``;`` (``&euro`` is not one of them).
    assert shape("<p>&amp &ampx &notit &#65 &#x41 &euro</p>")[1] == (
        "#text",
        (),
        "& &x \xacit A A &euro",
        1,
    )
    assert shape('<a title="&lt;&gt &amp;c">')[0] == ("a", (("title", "<> &c"),), "", 0)


def test_script_and_style_are_raw_text():
    assert shape("<script>if (a</b && c<d) x='&amp;'</script>e") == [
        ("script", (), "", 0),
        ("#text", (), "if (a</b && c<d) x='&amp;'", 1),
        ("#text", (), "e", 0),
    ]
    # ``</script`` ends the text only before whitespace, ``/`` or ``>``;
    # the stdlib's answer here varies across Python versions.
    assert shape("<SCRIPT>a</scripty>b</Script foo='>'>c") == [
        ("script", (), "", 0),
        ("#text", (), "a</scripty>b", 1),
        ("#text", (), "'>c", 0),
    ]
    assert shape("<style>p { x: 1 }") == [("style", (), "", 0), ("#text", (), "p { x: 1 }", 1)]
    assert shape("<script/>x") == [("script", (), "", 0), ("#text", (), "x", 0)]


def test_doctype_processing_instructions_and_cdata_are_dropped():
    # CDATA handling also varies across stdlib versions.
    assert shape("<!DOCTYPE html><?xml version='1'?><p>a<![CDATA[<b>]]>c</p>") == [
        ("p", (), "", 0),
        ("#text", (), "ac", 1),
    ]
    assert shape("<!doctype html") == []
    assert shape("x<?pi") == [("#text", (), "x", 0)]
    assert shape("</>x") == [("#text", (), "x", 0)]
