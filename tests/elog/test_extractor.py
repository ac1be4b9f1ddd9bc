"""Tests for the Elog Extractor on small hand-written pages."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.elog import (
    AttributePath,
    ElementPath,
    ElogProgram,
    ElogRule,
    Extractor,
    SubAtt,
    SubElem,
    figure5_program,
    parse_elog,
)
from repro.html import parse_html
from repro.web import SimulatedWeb
from repro.web.sites.ebay import ebay_page
from repro.xmlgen import to_xml


PAGE = """
<html><body>
  <h1>Catalogue</h1>
  <table class="products">
    <tr><td class="name"><a href="/p/1">Red lamp</a></td><td class="price">$ 15.00</td></tr>
    <tr><td class="name"><a href="/p/2">Green chair</a></td><td class="price">EUR 75.50</td></tr>
    <tr><td class="name">Blue table (no link)</td><td class="price">$ 120.00</td></tr>
  </table>
  <p>Contact: shop@example.test</p>
</body></html>
"""


@pytest.fixture
def page():
    return parse_html(PAGE, url="shop.example.test/catalogue")


def test_basic_tree_extraction(page):
    program = parse_elog(
        """
        row(S, X)  <- document(_, S), subelem(S, ?.tr, X)
        name(S, X) <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
        """
    )
    base = Extractor(program).extract(document=page)
    assert base.count("row") == 3
    assert base.count("name") == 3
    names = base.values_of("name")
    assert names == ["Red lamp", "Green chair", "Blue table (no link)"]


def test_hierarchy_in_instance_base(page):
    program = parse_elog(
        """
        row(S, X)   <- document(_, S), subelem(S, ?.tr, X)
        price(S, X) <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
        """
    )
    base = Extractor(program).extract(document=page)
    rows = base.instances_of("row")
    assert all(len(row.find_all("price")) == 1 for row in rows)
    xml = to_xml(base.to_xml(root_name="catalogue"))
    assert xml.count("<row>") == 3
    assert "$ 15.00" in xml


def test_string_and_attribute_extraction(page):
    program = parse_elog(
        r"""
        row(S, X)    <- document(_, S), subelem(S, ?.tr, X)
        link(S, X)   <- row(_, S), subelem(S, ?.a, X)
        url(S, X)    <- link(_, S), subatt(S, href, X)
        contact(S, X)<- document(_, S), subtext(S, [A-Za-z.]+@[A-Za-z.]+, X)
        """
    )
    base = Extractor(program).extract(document=page)
    assert base.values_of("url") == ["/p/1", "/p/2"]
    assert base.values_of("contact") == ["shop@example.test"]


def test_concept_condition_filters_prices(page):
    program = parse_elog(
        r"""
        row(S, X)   <- document(_, S), subelem(S, ?.tr, X)
        cell(S, X)  <- row(_, S), subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X), isCurrency(Y)
        """
    )
    base = Extractor(program).extract(document=page)
    assert base.count("cell") == 3
    assert all("$" in value or "EUR" in value for value in base.values_of("cell"))


def test_contains_and_notcontains_conditions(page):
    program = parse_elog(
        """
        row(S, X)      <- document(_, S), subelem(S, ?.tr, X)
        linked(S, X)   <- row(_, S), subelem(S, ?.td, X), contains(X, .a)
        unlinked(S, X) <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X), notcontains(X, .a)
        """
    )
    base = Extractor(program).extract(document=page)
    assert base.count("linked") == 2
    assert base.values_of("unlinked") == ["Blue table (no link)"]


def test_before_after_and_firstsubtree(page):
    program = parse_elog(
        """
        row(S, X)    <- document(_, S), subelem(S, ?.tr, X)
        second(S, X) <- row(_, S), subelem(S, ?.td, X), before(S, X, .td, 0, 5, _, _)
        first(S, X)  <- row(_, S), subelem(S, ?.td, X), firstsubtree(S, X)
        last(S, X)   <- row(_, S), subelem(S, ?.td, X), notafter(S, X, .td, 0, 100)
        """
    )
    base = Extractor(program).extract(document=page)
    # "second": tds that have a td before them = the price cells
    assert base.count("second") == 3
    assert all("$" in v or "EUR" in v for v in base.values_of("second"))
    # "first": exactly one td per row (the first one)
    assert base.count("first") == 3
    assert "Red lamp" in base.values_of("first")[0]
    # "last": tds with no td after them = the price cells again
    assert base.count("last") == 3


def test_specialisation_rule(page):
    program = parse_elog(
        """
        cell(S, X)   <- document(_, S), subelem(S, ?.td, X)
        pricecell(S, X) <- cell(S, X), contains(X, (#text, [(elementtext, $, substr)]))
        """
    )
    base = Extractor(program).extract(document=page)
    assert base.count("cell") == 6
    assert base.count("pricecell") == 2  # the two $-prices


def test_crawling_via_document_variable():
    web = SimulatedWeb()
    web.publish(
        "shop.test/list",
        """
        <body><ul>
          <li><a href="shop.test/item/1">one</a></li>
          <li><a href="shop.test/item/2">two</a></li>
        </ul></body>
        """,
    )
    web.publish("shop.test/item/1", "<body><h1>Item one</h1><p>$ 10</p></body>")
    web.publish("shop.test/item/2", "<body><h1>Item two</h1><p>$ 20</p></body>")
    program = parse_elog(
        """
        link(S, X)   <- document("shop.test/list", S), subelem(S, ?.a, X)
        itemurl(S, X)<- link(_, S), subatt(S, href, X)
        detailpage(S, X) <- itemurl(_, S), document(S, X), subelem(S, ?.body, X)
        title(S, X)  <- detailpage(_, S), subelem(S, ?.h1, X)
        """
    )
    base = Extractor(program, fetcher=web).extract(url="shop.test/list")
    assert base.count("link") == 2
    assert base.values_of("title") == ["Item one", "Item two"]
    assert any("item/1" in url for url in web.fetch_log)


def test_a_crawl_target_retried_in_a_later_round_is_still_extracted():
    # The crawl rule's own path never matches (body sits below html, not
    # directly below the page root), so the round that retries the failed target fetches a
    # page and derives nothing else.  That page must still reach ``title``,
    # which ran earlier in the round, in a following round.
    from repro.resilience import FaultPlan

    def run(plan):
        web = SimulatedWeb()
        web.publish(
            "shop.test/list",
            '<html><body><a href="shop.test/next">next</a><h1>one</h1></body></html>',
        )
        web.publish("shop.test/next", "<html><body><h1>two</h1></body></html>")
        web.install_faults(plan)
        program = parse_elog(
            """
            title(S, X) <- document(_, S), subelem(S, ?.h1, X)
            link(S, X)  <- document(_, S), subelem(S, ?.a, X)
            url(S, X)   <- link(_, S), subatt(S, href, X)
            page(S, X)  <- url(_, S), document(S, X), subelem(S, .body, X)
            """
        )
        return Extractor(program, fetcher=web).extract(url="shop.test/list")

    clean = run(FaultPlan())
    retried = run(FaultPlan().fail_transient("shop.test/next", times=1))
    titles = sorted(clean.values_of("title"))
    assert sorted(retried.values_of("title")) == titles == ["one", "two"]


def _rule_applications(monkeypatch):
    """Count ``Extractor._apply_rule`` calls per rule pattern."""
    applied = Counter()
    apply_rule = Extractor._apply_rule

    def counting(self, plan, *args):
        applied[plan.rule.pattern] += 1
        return apply_rule(self, plan, *args)

    monkeypatch.setattr(Extractor, "_apply_rule", counting)
    return applied


@pytest.mark.parametrize("items", [1, 12, 35])
def test_figure5_applies_its_literal_url_rule_once_per_page(monkeypatch, items):
    # The page matches tableseq's literal, so the rule tries no fetch, and
    # the convergence round finds its input (the document instances)
    # unchanged and skips it.
    web = SimulatedWeb()
    web.publish("www.ebay.com/listing/1", ebay_page(count=items, seed=items))
    given = parse_html(ebay_page(count=items, seed=items), url="www.ebay.com/")
    applied = _rule_applications(monkeypatch)
    for extract in (
        lambda: Extractor(figure5_program()).extract(document=given),
        lambda: Extractor(figure5_program(), fetcher=web).extract(url="www.ebay.com/listing/1"),
    ):
        applied.clear()
        base = extract()
        assert base.count("record") == base.count("bids") == items
        assert applied["tableseq"] == 1


def test_a_literal_url_rule_whose_fetch_failed_is_retried_in_a_later_round(monkeypatch):
    # The first fetch of the literal fails, so the rule falls back to the
    # supplied page, which has no items.  ``title`` derives something in the
    # same round, so there is a next round, and there the rule must fetch
    # again instead of being skipped on its unchanged input.
    from repro.resilience import FaultPlan

    def run(plan):
        web = SimulatedWeb()
        web.publish("shop.test/list", "<html><body><ul><li>one</li><li>two</li></ul></body></html>")
        web.install_faults(plan)
        program = parse_elog(
            """
            item(S, X)  <- document("shop.test/list", S), subelem(S, ?.li, X)
            title(S, X) <- document(_, S), subelem(S, ?.h1, X)
            """
        )
        home = parse_html("<html><body><h1>home</h1></body></html>", url="local.test/home")
        return Extractor(program, fetcher=web).extract(document=home)

    clean = run(FaultPlan())
    applied = _rule_applications(monkeypatch)
    retried = run(FaultPlan().fail_transient("shop.test/list", times=1))
    assert sorted(retried.values_of("item")) == sorted(clean.values_of("item")) == ["one", "two"]
    assert retried.values_of("title") == ["home"]
    assert applied["item"] >= 2


def test_programmatic_rule_construction(page):
    program = ElogProgram(
        [
            ElogRule(
                pattern="row",
                parent="document",
                extraction=SubElem(path=ElementPath.parse("?.tr")),
            ),
            ElogRule(
                pattern="anchor",
                parent="row",
                extraction=SubElem(path=ElementPath.parse("?.a")),
            ),
            ElogRule(
                pattern="href",
                parent="anchor",
                extraction=SubAtt(path=AttributePath("href")),
            ),
        ]
    )
    base = Extractor(program).extract(document=page)
    assert base.count("anchor") == 2
    assert base.values_of("href") == ["/p/1", "/p/2"]


def test_auxiliary_patterns_hidden_in_xml(page):
    program = parse_elog(
        """
        row(S, X)  <- document(_, S), subelem(S, ?.tr, X)
        name(S, X) <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
        """
    )
    program = replace(program, auxiliary_patterns={"row"})
    xml_tree = Extractor(program).extract_to_xml(document=page, root_name="out")
    serialised = to_xml(xml_tree)
    assert "<row>" not in serialised
    assert serialised.count("<name>") == 3
