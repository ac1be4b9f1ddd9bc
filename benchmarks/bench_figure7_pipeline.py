"""Experiment E13 (Figure 7): the books information pipeline.

Three heterogeneous book sources are wrapped, integrated, filtered and sorted
by the Transformation Server; the benchmark reports end-to-end pipeline
latency and checks the integrated record counts.  The change gate's layer
is timed on its own: ``ChangeDetector.observe`` over 6 shops of 12 frozen
offers when one shop's output is new and when every record is new.  So is
the XML Designer step a wrapper runs per changed page:
``PatternInstanceBase.to_xml`` over the instance base of one 12-offer
competitor page of the ``monitor_server`` benchmark.
"""

from __future__ import annotations

import time

import pytest

from repro.api import Pipeline
from repro.elog import Extractor, parse_elog
from repro.html import parse_html
from repro.server import (
    ChangeDetector,
    IntegrationComponent,
    SortComponent,
    WrapperComponent,
    XmlDeliverer,
)
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import bookstore_site
from repro.web.sites.markets import competitor_page, competitor_prices
from repro.xmlgen import XmlElement

BOOKS_PER_SHOP = 8
GATE_SHOPS = 6
GATE_OFFERS = 12

SHOP_A_WRAPPER = parse_elog(
    """
    book(S, X)   <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, title, exact)]))
    title(S, X)  <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
    price(S, X)  <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
    """
)
SHOP_B_WRAPPER = parse_elog(
    """
    book(S, X)   <- document(_, S), subelem(S, ?.li, X)
    title(S, X)  <- book(_, S), subelem(S, (?.span, [(class, title, exact)]), X)
    price(S, X)  <- book(_, S), subelem(S, (?.span, [(class, price, exact)]), X)
    """
)
SHOP_C_WRAPPER = parse_elog(
    """
    book(S, X)   <- document(_, S), subelem(S, (?.div, [(class, entry, exact)]), X)
    title(S, X)  <- book(_, S), subelem(S, (?.div, [(class, t, exact)]), X)
    price(S, X)  <- book(_, S), subelem(S, (?.div, [(class, p, exact)]), X)
    """
)


def build_pipe() -> Pipeline:
    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=BOOKS_PER_SHOP, seed=3))
    shops = {
        "shop_a": (SHOP_A_WRAPPER, "books-a.test/bestsellers"),
        "shop_b": (SHOP_B_WRAPPER, "books-b.test/chart"),
        "shop_c": (SHOP_C_WRAPPER, "books-c.test/picks"),
    }
    builder = Pipeline.builder("books")
    for shop, (wrapper, url) in shops.items():
        builder.stage(WrapperComponent(shop, wrapper, web, url), is_source=True)
    return (
        builder.stage(IntegrationComponent("integrate", root_name="allbooks"), inputs=list(shops))
        .stage(SortComponent("by_price", "book", "price", root_name="offers"))
        .stage(XmlDeliverer("deliver"))
        .build()
    )


def test_pipeline_integrates_all_sources():
    pipe = build_pipe()
    start = time.perf_counter()
    results = pipe.run()
    elapsed = time.perf_counter() - start
    offers = results["by_price"].find_all("book")
    assert len(offers) == 3 * BOOKS_PER_SHOP
    prices = [offer.findtext("price") for offer in offers]
    assert all(prices)
    print(f"\nE13  Figure 7 pipeline: {len(offers)} integrated offers from 3 sources "
          f"in {elapsed:.3f} s")


@pytest.mark.benchmark(group="E13-pipeline")
def test_benchmark_books_pipeline(benchmark):
    pipe = build_pipe()
    benchmark(pipe.run)


def _shop(shop: int, version: int) -> XmlElement:
    """One wrapper's frozen output; each ``version`` moves every price."""
    root = XmlElement(f"shop_{shop}", attributes={"source": f"competitor-{shop}.test"})
    for item in range(GATE_OFFERS):
        offer = root.add("offer")
        offer.add("product", f"product {shop}-{item}")
        offer.add("price", f"{10 + item + version}.00")
    return root.freeze()


def _market(shops) -> XmlElement:
    """An integrate stage's output: a new frozen root over the shops."""
    market = XmlElement("market")
    market.children = list(shops)
    return market.freeze()


def test_gate_observe_time(quick, bench_record_samples):
    calls = 60 if quick else 400
    print("\nE13  change gate: ChangeDetector.observe over "
          f"{GATE_SHOPS}x{GATE_OFFERS} frozen offers (median of {calls} calls)")
    for workload, new_shops in (("gate_observe_one_shop_changed_ms", 1),
                                ("gate_observe_all_new_ms", GATE_SHOPS)):
        detector = ChangeDetector("offer", key="product")
        shops = [_shop(shop, 0) for shop in range(GATE_SHOPS)]
        detector.observe(_market(shops))
        samples = []
        for call in range(1, calls + 1):
            for shop in range(call, call + new_shops):
                shops[shop % GATE_SHOPS] = _shop(shop % GATE_SHOPS, call)
            market = _market(shops)
            start = time.perf_counter()
            report = detector.observe(market)
            samples.append((time.perf_counter() - start) * 1e3)
            assert len(report.changed) == new_shops * GATE_OFFERS and not report.added
        median = bench_record_samples(workload, samples)
        print(f"  {workload:<34} {median:.4f} ms")


#: The ``monitor_server`` benchmark's competitor wrapper.
PRICE_WRAPPER = parse_elog(
    """
    offer(S, X)   <- document(_, S), subelem(S, ?.tr, X)
    product(S, X) <- offer(_, S), subelem(S, (?.td, [(class, product, exact)]), X)
    price(S, X)   <- offer(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
    """
)


def test_instance_base_to_xml_time(quick, bench_record_samples):
    page = parse_html(competitor_page("Competitor 1", competitor_prices(GATE_OFFERS, seed=1)))
    base = Extractor(PRICE_WRAPPER).extract(document=page)
    assert base.count("offer") == GATE_OFFERS
    calls = 20
    samples = []
    for _ in range(30 if quick else 200):
        start = time.perf_counter()
        for _ in range(calls):
            base.to_xml(root_name="shop_1")
        samples.append((time.perf_counter() - start) * 1e3 / calls)
    median = bench_record_samples("instance_base_to_xml_shop_ms", samples)
    print(f"\nE13  PatternInstanceBase.to_xml, one {GATE_OFFERS}-offer shop page: {median:.4f} ms")
