"""Experiment E13 (Figure 7): the books information pipeline.

Three heterogeneous book sources are wrapped, integrated, filtered and sorted
by the Transformation Server; the benchmark reports end-to-end pipeline
latency and checks the integrated record counts.
"""

from __future__ import annotations

import time

import pytest

from repro.api import Pipeline
from repro.elog import parse_elog
from repro.server import (
    InformationPipe,
    IntegrationComponent,
    SortComponent,
    WrapperComponent,
    XmlDeliverer,
)
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import bookstore_site

BOOKS_PER_SHOP = 8

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


def build_pipe() -> InformationPipe:
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
        .pipe
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
