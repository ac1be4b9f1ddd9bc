"""Tests for the XML output substrate."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlgen import XmlElement, parse_xml, to_compact_xml, to_xml


def build_catalog():
    root = XmlElement("catalog", attributes={"source": "test"})
    first = root.add("book", attributes={"id": "1"})
    first.add("title", text="Datalog Rising")
    first.add("price", text="12.50")
    second = root.add("book", attributes={"id": "2"})
    second.add("title", text="Trees of Vienna")
    return root


def test_add_find_and_iter():
    catalog = build_catalog()
    assert len(catalog.find_all("book")) == 2
    assert catalog.find("book").get("id") == "1"
    assert catalog.find("missing") is None
    assert catalog.findtext("missing", "none") == "none"
    assert len(list(catalog.iter("title"))) == 2
    assert catalog.size() == 6


def test_full_text_and_copy_independence():
    catalog = build_catalog()
    clone = catalog.copy()
    clone.find("book").add("note", text="signed")
    assert catalog.find("book").find("note") is None
    assert "Datalog Rising" in catalog.full_text()


def test_equality_is_structural():
    assert build_catalog() == build_catalog()
    other = build_catalog()
    other.find("book").attributes["id"] = "9"
    assert build_catalog() != other


def test_serialisation_and_parse_round_trip():
    catalog = build_catalog()
    markup = to_xml(catalog)
    assert markup.startswith("<?xml")
    assert markup.count("<book") == 2
    parsed = parse_xml(markup)
    assert parsed.find("book").findtext("title") == "Datalog Rising"
    compact = to_compact_xml(catalog)
    assert "\n" not in compact
    assert parse_xml(compact).find_all("book")[1].get("id") == "2"


def test_escaping_of_special_characters():
    element = XmlElement("note", text="fish & chips <tasty>")
    element.attributes["title"] = 'say "hi"'
    markup = to_xml(element)
    assert "&amp;" in markup and "&lt;tasty&gt;" in markup
    assert parse_xml(markup).text == "fish & chips <tasty>"


# Markup-significant characters and inner spaces; the parser strips the
# ends of text content, so generated text has none to strip.
_VALUES = st.text(alphabet="ab &<>\"'", max_size=8)


@st.composite
def _elements(draw, depth=0):
    element = XmlElement(
        draw(st.sampled_from(("a", "b", "c"))),
        attributes=draw(st.dictionaries(st.sampled_from(("id", "title")), _VALUES)),
        text=draw(_VALUES.map(str.strip)),
    )
    if depth < 3:
        for child in draw(st.lists(_elements(depth + 1), max_size=3)):
            element.append(child)
    return element


@settings(max_examples=100, deadline=None)
@given(_elements())
def test_markup_round_trips_text_and_attribute_values(element):
    assert parse_xml(to_xml(element)) == element
    assert parse_xml(to_compact_xml(element)) == element
