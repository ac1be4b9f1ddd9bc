"""Tests for element paths, text paths and concept predicates."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.elog import (
    DEFAULT_CONCEPTS,
    AttributeCondition,
    ConceptRegistry,
    ElementPath,
    EPathSyntaxError,
    TextPath,
    parse_number,
)
from repro.elog.concepts import CURRENCY_TOKENS, DATE_PATTERNS, _is_currency, _is_date
from repro.elog.textpath import AttributePath
from repro.html import parse_html
from repro.tree.serialize import from_dict, to_dict


@pytest.fixture
def page():
    return parse_html(
        """
        <body>
          <table class="items">
            <tr><td><a href="/1">alpha</a></td><td>$ 10.00</td></tr>
            <tr><td>beta</td><td>EUR 20.00</td></tr>
          </table>
          <div><p><span>deep</span></p></div>
        </body>
        """
    )


def test_parse_simple_paths():
    path = ElementPath.parse(".body.table")
    assert path.steps == ("body", "table")
    wildcard = ElementPath.parse("?.td")
    assert wildcard.steps == ("?", "td")
    star = ElementPath.parse(".table.*.td")
    assert star.steps == ("table", "*", "td")


def test_parse_path_with_conditions():
    path = ElementPath.parse("(?.td, [(elementtext, item, substr)])")
    assert path.steps == ("?", "td")
    assert path.conditions == (AttributeCondition("elementtext", "item", "substr"),)
    two = ElementPath.parse("(.table, [(class, items, exact), (id, x, substr)])")
    assert len(two.conditions) == 2


def test_parse_errors():
    with pytest.raises(EPathSyntaxError):
        ElementPath.parse("")
    with pytest.raises(EPathSyntaxError):
        ElementPath.parse(".td den!")
    with pytest.raises(EPathSyntaxError):
        ElementPath.parse("(.td, [(a, b, weird_mode)])")


def test_path_matching_semantics():
    path = ElementPath.parse("?.td")
    assert path.matches_path(["table", "tr", "td"])
    assert path.matches_path(["td"])
    assert not path.matches_path(["table", "tr"])
    direct = ElementPath.parse(".table.tr")
    assert direct.matches_path(["table", "tr"])
    assert not direct.matches_path(["table", "x", "tr"])
    double = ElementPath.parse("?.p.?.span")
    assert double.matches_path(["div", "p", "span"])
    assert double.matches_path(["p", "span"])
    assert not double.matches_path(["span", "p"])


def test_find_targets_direct_and_deep(page):
    body = page.find_first("body")
    tables = ElementPath.parse(".table").find_targets(body)
    assert len(tables) == 1
    tds = ElementPath.parse("?.td").find_targets(body)
    assert len(tds) == 4
    spans = ElementPath.parse("?.div.?.span").find_targets(body)
    assert len(spans) == 1


def test_bare_trees_are_answered_by_the_walk(page, monkeypatch):
    """A tree never wrapped in a Document has no label columns: ``?.td``
    over it still takes the automaton walk, and finds what the region query
    finds over the same tree as a document."""
    walked = []
    walk = ElementPath._walk_hits

    def spy(path, parent):
        walked.append(parent)
        return walk(path, parent)

    monkeypatch.setattr(ElementPath, "_walk_hits", spy)
    path = ElementPath.parse(r"(?.td, [(elementtext, \var[Y].*, regvar)])")
    body = page.find_first("body")
    bare_body = from_dict(to_dict(body))
    assert bare_body.document is None
    over_document = path.find_targets(body)
    assert walked == []  # the region query
    over_bare = path.find_targets(bare_body)
    assert walked == [bare_body]
    assert [(node.text_content(), bindings) for node, bindings in over_bare] == [
        (node.text_content(), bindings) for node, bindings in over_document
    ]
    assert len(over_bare) == 4


def test_attribute_conditions_on_targets(page):
    body = page.find_first("body")
    items_table = ElementPath.parse('(.table, [(class, items, exact)])').find_targets(body)
    assert len(items_table) == 1
    missing = ElementPath.parse('(.table, [(class, other, exact)])').find_targets(body)
    assert missing == []
    with_link = ElementPath.parse("(?.td, [(a, , substr)])").find_targets(body)
    assert len(with_link) == 1  # only the first td contains an <a>


def test_regvar_condition_binds_variable(page):
    body = page.find_first("body")
    path = ElementPath.parse(r"(?.td, [(elementtext, \var[Y].*, regvar)])")
    results = path.find_targets(body)
    bindings = {b["Y"] for _, b in results}
    assert "$" in bindings
    assert "EUR" in bindings or "alpha" in bindings


def test_match_target_rejects_non_descendants(page):
    body = page.find_first("body")
    div = page.find_first("div")
    path = ElementPath.parse("?.td")
    assert path.match_target(div, body) is None
    assert path.match_target(body, body) is None


def test_element_path_str_round_trip():
    text = "(?.td, [(elementtext, item, substr)])"
    path = ElementPath.parse(text)
    again = ElementPath.parse(str(path))
    assert again.steps == path.steps
    assert again.conditions == path.conditions


def test_text_path_matching(page):
    price_td = page.find_all("td")[1]
    matches = TextPath.parse(r"\var[Y]").find_matches(price_td)
    tokens = [value for value, _ in matches]
    assert "$" in tokens
    assert "10.00" in tokens
    amounts = TextPath.parse(r"\d+\.\d{2}").find_matches(price_td)
    assert [value for value, _ in amounts] == ["10.00"]


def test_attribute_path(page):
    anchor = page.find_first("a")
    assert AttributePath.parse("href").find_matches(anchor) == [("/1", {})]
    assert AttributePath.parse("missing").find_matches(anchor) == []


def test_builtin_concepts():
    assert DEFAULT_CONCEPTS.check("isCurrency", "$")
    assert DEFAULT_CONCEPTS.check("isCurrency", "EUR")
    assert not DEFAULT_CONCEPTS.check("isCurrency", "banana")
    assert DEFAULT_CONCEPTS.check("isCountry", "Austria")
    assert not DEFAULT_CONCEPTS.check("isCountry", "Atlantis")
    assert DEFAULT_CONCEPTS.check("isDate", "14.06.2004")
    assert DEFAULT_CONCEPTS.check("isDate", "June 14, 2004")
    assert not DEFAULT_CONCEPTS.check("isDate", "hello")
    assert DEFAULT_CONCEPTS.check("isNumber", "1,234.56")
    assert DEFAULT_CONCEPTS.check("isPrice", "$ 12.50")
    assert DEFAULT_CONCEPTS.check("isEmail", "info@lixto.com")
    assert DEFAULT_CONCEPTS.check("isFlightNumber", "OS 123")
    assert DEFAULT_CONCEPTS.check("isPercentage", "12.5 %")


def _old_is_currency(value: str) -> bool:
    """The five-regex formula ``_is_currency`` replaced, kept as the oracle."""
    token = value.strip().lower()
    if token in CURRENCY_TOKENS:
        return True
    return any(symbol in value for symbol in ("$", "€", "£", "¥")) or any(
        re.search(rf"\b{re.escape(word)}\b", token) for word in ("eur", "usd", "gbp", "euro", "dm")
    )


CURRENCY_PIECES = (
    "eur", "EUR", "euro", "Euros", "usd", "gbp", "dm", "DM", "us", "e", "u",
    "r", "o", "d", "m", "$", "€", "£", "¥", " ", "\t", "1", ".", ",", "-",
    "_", "é", "ß",
)


@given(
    st.one_of(
        st.lists(st.sampled_from(CURRENCY_PIECES), max_size=8).map("".join),
        st.text(max_size=12),
    )
)
@settings(max_examples=300, deadline=None)
def test_is_currency_agrees_with_the_five_regex_formula(value):
    assert _is_currency(value) == _old_is_currency(value)


@given(st.text(alphabet="0123456789./-, :janfebmrpyulgsoctvd", max_size=16))
@settings(max_examples=200, deadline=None)
def test_is_date_agrees_with_searching_each_date_pattern(value):
    text = value.strip().lower()
    assert _is_date(value) == any(re.search(pattern, text) for pattern in DATE_PATTERNS)


def test_concept_registry_extension():
    registry = ConceptRegistry()
    registry.register_vocabulary("isColour", ["red", "green", "blue"])
    registry.register_regex("isPostcode", r"^\d{4}$", full_match=True)
    registry.register_function("isShort", lambda value: len(value) < 4)
    assert registry.check("isColour", "Green")
    assert not registry.check("isColour", "taupe")
    assert registry.check("isPostcode", "1040")
    assert registry.check("isShort", "ab")
    assert "isColour" in registry.names()
    with pytest.raises(KeyError):
        registry.check("isUnknown", "x")


def test_parse_number_variants():
    assert parse_number("1.234,56") == pytest.approx(1234.56)
    assert parse_number("1,234.56") == pytest.approx(1234.56)
    assert parse_number("$ 42") == pytest.approx(42)
    assert parse_number("12,5") == pytest.approx(12.5)
    assert parse_number("garbage") is None
