"""Tests for the Core XPath evaluators (linear, naive, full)."""

from __future__ import annotations

import pytest

from repro.html import parse_html
from repro.xpath import (
    CoreXPathEvaluator,
    UnsupportedFeatureError,
    evaluate_full,
    evaluate_naive,
    evaluate_xpath,
)


PAGE = """
<html>
  <body>
    <div id="main">
      <table class="items">
        <tr><th>name</th><th>price</th></tr>
        <tr><td><a href="/1">alpha</a></td><td>10</td></tr>
        <tr><td>beta</td><td>20</td></tr>
        <tr><td><a href="/3">gamma</a></td><td>30</td></tr>
      </table>
      <p>note</p>
    </div>
    <div id="footer"><p>contact</p></div>
  </body>
</html>
"""


@pytest.fixture
def page():
    return parse_html(PAGE)


def texts(nodes):
    return [node.normalized_text() for node in nodes]


def test_simple_descendant_query(page):
    rows = evaluate_xpath(page, "//tr")
    assert len(rows) == 4
    anchors = evaluate_xpath(page, "//td/a")
    assert texts(anchors) == ["alpha", "gamma"]


def test_child_chain_from_root(page):
    cells = evaluate_xpath(page, "/html/body/div/table/tr/td")
    assert len(cells) == 6


def test_predicate_existence(page):
    rows_with_links = evaluate_xpath(page, "//tr[td/a]")
    assert len(rows_with_links) == 2
    rows_with_th = evaluate_xpath(page, "//tr[th]")
    assert len(rows_with_th) == 1


def test_negated_predicate(page):
    rows_without_links = evaluate_xpath(page, "//tr[td and not(td/a)]")
    assert len(rows_without_links) == 1
    assert "beta" in rows_without_links[0].normalized_text()


def test_or_and_nested_predicates(page):
    selected = evaluate_xpath(page, "//div[table[tr[th]] or p[not(a)]]")
    ids = [node.attributes.get("id") for node in selected]
    assert ids == ["main", "footer"]


def test_following_sibling_axis(page):
    after_table = evaluate_xpath(page, "//table/following-sibling::p")
    assert texts(after_table) == ["note"]


def test_ancestor_and_parent_axes(page):
    anchors_div = evaluate_xpath(page, "//a/ancestor::div")
    assert [n.attributes.get("id") for n in anchors_div] == ["main"]
    td_parents = evaluate_xpath(page, "//a/..")
    assert all(node.label == "td" for node in td_parents)


def test_following_and_preceding_axes(page):
    following_p = evaluate_xpath(page, "//table/following::p")
    assert texts(following_p) == ["note", "contact"]
    preceding_tr = evaluate_xpath(page, "//p/preceding::tr")
    assert len(preceding_tr) == 4


def test_text_node_test_and_wildcard(page):
    all_text_in_anchors = evaluate_xpath(page, "//a/text()")
    assert texts(all_text_in_anchors) == ["alpha", "gamma"]
    elements_under_footer = evaluate_xpath(page, '//div[@id="footer"]/*')
    assert [n.label for n in elements_under_footer] == ["p"]


def test_attribute_predicates(page):
    with_href = evaluate_xpath(page, "//a[@href]")
    assert len(with_href) == 2
    exact = evaluate_xpath(page, '//a[@href="/3"]')
    assert texts(exact) == ["gamma"]


def test_text_equality_predicates(page):
    beta_cells = evaluate_xpath(page, "//td[text()='beta']")
    assert len(beta_cells) == 1
    rows = evaluate_xpath(page, "//tr[td='20']")
    assert len(rows) == 1
    assert "beta" in rows[0].normalized_text()


def test_relative_query_from_context_node(page):
    table = page.find_first("table")
    evaluator = CoreXPathEvaluator(page)
    cells = evaluator.evaluate("tr/td", context=table)
    assert len(cells) == 6
    # absolute queries ignore the context node
    assert evaluator.evaluate("//p", context=table) == evaluate_xpath(page, "//p")


def test_root_query_returns_document_root(page):
    result = evaluate_xpath(page, "/")
    assert len(result) == 1
    assert result[0] is page.root


def test_core_evaluator_rejects_positional(page):
    with pytest.raises(UnsupportedFeatureError):
        evaluate_xpath(page, "//tr[2]")
    with pytest.raises(UnsupportedFeatureError):
        evaluate_naive(page, "//tr[2]")


def test_full_evaluator_positional_predicates(page):
    second_row = evaluate_full(page, "//tr[2]")
    assert len(second_row) == 1
    assert "alpha" in second_row[0].normalized_text()
    last_cell_per_row = evaluate_full(page, "//tr/td[last()]")
    assert texts(last_cell_per_row) == ["10", "20", "30"]
    third = evaluate_full(page, "//table/tr[position()=4]/td[1]")
    assert texts(third) == ["gamma"]


def test_full_evaluator_agrees_with_core_on_core_queries(page):
    queries = [
        "//tr[td/a]",
        "//div[table[tr[th]] or p[not(a)]]",
        "//table/following-sibling::p",
        "//a/ancestor::div",
        "//td[text()='beta']",
    ]
    for query in queries:
        assert texts(evaluate_full(page, query)) == texts(evaluate_xpath(page, query))


def test_naive_evaluator_agrees_with_core(page):
    queries = [
        "//tr",
        "//tr[td and not(td/a)]",
        "//table/tr/td",
        "//p/preceding::tr",
        "//div[p]",
        '//a[@href="/1"]',
    ]
    for query in queries:
        assert texts(evaluate_naive(page, query)) == texts(evaluate_xpath(page, query))


def test_results_are_in_document_order(page):
    nodes = evaluate_xpath(page, "//td")
    indexes = [node.preorder_index for node in nodes]
    assert indexes == sorted(indexes)
