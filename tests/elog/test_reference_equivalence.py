"""The extractor derives exactly what the naive reference interpreter does.

``tests/elog/reference.py`` re-applies every rule every round and rescans
the scope of a context condition per candidate; :class:`Extractor` skips
rules whose inputs did not change and memoises witnesses per extraction.
Both must yield the same XML text and the same per-pattern counts.
"""

from __future__ import annotations

import pytest

from repro.elog import Extractor, figure5_program, parse_elog
from repro.html import parse_html
from repro.web import SimulatedWeb
from repro.web.sites.ebay import ebay_page
from repro.web.sites.flights import departures_page, generate_flights
from repro.web.sites.markets import competitor_page, competitor_prices
from repro.xmlgen import to_xml

from .reference import ReferenceExtractor

# The monitoring wrappers of the end-to-end benchmark, copied verbatim.
PRICE_WRAPPER = """
offer(S, X)   <- document(_, S), subelem(S, ?.tr, X)
product(S, X) <- offer(_, S), subelem(S, (?.td, [(class, product, exact)]), X)
price(S, X)   <- offer(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
"""
BOARD_WRAPPER = """
flight(S, X) <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, flight, exact)]))
number(S, X) <- flight(_, S), subelem(S, (?.td, [(class, flight, exact)]), X)
dest(S, X)   <- flight(_, S), subelem(S, (?.td, [(class, dest, exact)]), X)
status(S, X) <- flight(_, S), subelem(S, (?.td, [(class, status, exact)]), X)
"""

PAGE = """
<html><body>
  <h1>Catalogue</h1>
  <!-- generated listing -->
  <table class="products">
    <tr><td class="name"><a href="/p/1">Red lamp</a></td><td class="price">$ 15.00</td></tr>
    <tr><td class="name"><a href="/p/2">Green chair</a></td><td class="price">EUR 75.50</td></tr>
    <tr><td class="name">Blue table (no link)</td><td class="price">$ 120.00</td></tr>
  </table>
  <p>Contact: shop@example.test</p>
</body></html>
"""

# ``marked`` references ``price``, which only a later rule defines: the
# first round derives no ``marked``, and only the second round's re-run of
# the rule over the same parent instances finds them.
FORWARD_REFERENCE = """
marked(S, X) <- document(_, S), subelem(S, ?.td, X), before(S, X, .td, 0, 30, Y, _), price(_, Y)
price(S, X)  <- document(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
"""

NEGATED_REFERENCE = """
cell(S, X)  <- document(_, S), subelem(S, ?.td, X)
price(S, X) <- document(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
plain(S, X) <- cell(_, S), subelem(S, ?.a, X)
other(S, X) <- document(_, S), subelem(S, ?.td, X), not price(_, X)
"""

FIRSTSUBTREE = """
row(S, X)   <- document(_, S), subelem(S, ?.tr, X)
first(S, X) <- row(_, S), subelem(S, ?.td, X), firstsubtree(S, X)
last(S, X)  <- row(_, S), subelem(S, ?.td, X), notafter(S, X, .td, 0, 100)
"""

CRAWL = """
link(S, X)   <- document("shop.test/list", S), subelem(S, ?.a, X)
itemurl(S, X)<- link(_, S), subatt(S, href, X)
detailpage(S, X) <- itemurl(_, S), document(S, X), subelem(S, ?.body, X)
title(S, X)  <- detailpage(_, S), subelem(S, ?.h1, X)
"""


def _outcome(base, program):
    xml = to_xml(base.to_xml(auxiliary=program.auxiliary_patterns))
    counts = {pattern: base.count(pattern) for pattern in base.patterns()}
    return xml, counts


def assert_matches_reference(program, fetcher=None, **inputs):
    actual = _outcome(Extractor(program, fetcher=fetcher).extract(**inputs), program)
    expected = _outcome(ReferenceExtractor(program, fetcher=fetcher).extract(**inputs), program)
    assert actual == expected
    return actual


@pytest.mark.parametrize("items", [1, 2, 3, 7, 16, 40])
def test_figure5_pages(items):
    document = parse_html(ebay_page(count=items, seed=items), url="www.ebay.com")
    _, counts = assert_matches_reference(figure5_program(), document=document)
    assert counts["record"] == counts["bids"] == items


def test_price_wrapper():
    html = competitor_page("Competitor 1", competitor_prices(12, seed=3))
    _, counts = assert_matches_reference(parse_elog(PRICE_WRAPPER), document=parse_html(html))
    assert counts["offer"] == counts["price"] == 12


def test_board_wrapper():
    html = departures_page("Vienna", generate_flights(20, seed=5))
    _, counts = assert_matches_reference(parse_elog(BOARD_WRAPPER), document=parse_html(html))
    assert counts["flight"] == counts["status"] == 20


def test_crawling_program():
    web = SimulatedWeb()
    web.publish(
        "shop.test/list",
        '<body><ul><li><a href="shop.test/item/1">one</a></li>'
        '<li><a href="shop.test/item/2">two</a></li>'
        '<li><a href="shop.test/item/3">missing</a></li></ul></body>',
    )
    web.publish("shop.test/item/1", "<body><h1>Item one</h1><p>$ 10</p></body>")
    web.publish("shop.test/item/2", "<body><h1>Item two</h1><p>$ 20</p></body>")
    _, counts = assert_matches_reference(parse_elog(CRAWL), fetcher=web, url="shop.test/list")
    assert counts["link"] == 3
    assert counts["title"] == 2


def test_forward_pattern_reference_needs_a_second_round():
    _, counts = assert_matches_reference(
        parse_elog(FORWARD_REFERENCE), document=parse_html(PAGE)
    )
    assert counts["price"] == 3
    assert counts["marked"] > 0


def test_negated_pattern_reference():
    _, counts = assert_matches_reference(
        parse_elog(NEGATED_REFERENCE), document=parse_html(PAGE)
    )
    assert counts["other"] == 3


def test_firstsubtree():
    _, counts = assert_matches_reference(parse_elog(FIRSTSUBTREE), document=parse_html(PAGE))
    assert counts["first"] == counts["last"] == 3
