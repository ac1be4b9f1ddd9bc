"""Change-driven server ticks: the wrapper's verifying trace.

A :class:`WrapperComponent` keeps the ``(url, validator)`` of every page its
last successful extraction read, plus that extraction's output.  A tick
whose refetched pages all match returns a copy of the output without
parsing or extracting anything.  The differential test below runs a seeded
mutation schedule over a faulty web and checks every tick of every wrapper
against a fresh :class:`Extractor` over a fault-free mirror of the same
pages, or against the previous good output marked stale when the start
fetch failed.  Deliveries and stale serves are checked against a replay of
the fault plan.

``CHAOS_SEED`` (the environment variable) picks the schedule and the fault
seed, as in ``tests/resilience/test_chaos.py``; the pinned default keeps the
plain run deterministic.
"""

from __future__ import annotations

import os
import random
from dataclasses import replace
from typing import List

import pytest

from repro import Pipeline, ResiliencePolicy, RetryPolicy
from repro.api import ChangeDetector, XmlDeliverer
from repro.elog import Extractor, figure5_program, parse_elog, parse_rule
from repro.html import parse_html
from repro.resilience import FaultPlan
from repro.server import TransformationServer
from repro.server.components import WrapperComponent
from repro.server.monitoring import ChangeGatedDeliverer
from repro.web import SimulatedWeb, StaticDocumentFetcher
from repro.web.sites.bookstore import bookstore_site
from repro.web.sites.ebay import generate_items, render_page
from repro.web.sites.flights import STATUSES, departures_page, generate_flights
from repro.web.sites.markets import competitor_page, competitor_prices
from repro.xmlgen.serializer import to_xml

SEED = int(os.environ.get("CHAOS_SEED", "20261017"))

TICKS = 240
ATTEMPTS = 2
#: High enough that both attempts of a fetch fail now and then (a stale
#: serve, or a crawl target retried in the extraction's next round).
#: ``max_failures=ATTEMPTS`` lets the fetch after a double failure through.
FAIL_RATE = 0.2
MUTATE = 0.12
RESIZE = 0.05

POLICY = ResiliencePolicy(
    retry=RetryPolicy(max_attempts=ATTEMPTS, backoff_base_s=0.0, jitter=0.0),
    breaker_threshold=ATTEMPTS + 1,
)

SHOP_URL = "competitor-1.test/prices"
BOARD_URL = "vienna-airport.test/departures"
LISTING_URL = "www.ebay.com/listing"

PRICE_WRAPPER = """
offer(S, X)   <- document(_, S), subelem(S, ?.tr, X)
product(S, X) <- offer(_, S), subelem(S, (?.td, [(class, product, exact)]), X)
price(S, X)   <- offer(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
"""
BOARD_WRAPPER = """
flight(S, X) <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, flight, exact)]))
number(S, X) <- flight(_, S), subelem(S, (?.td, [(class, flight, exact)]), X)
status(S, X) <- flight(_, S), subelem(S, (?.td, [(class, status, exact)]), X)
"""
#: Figure 5 plus a crawl: each result page's pager link leads to the next.
NEXT_PAGE_RULES = (
    'nextlink(S, X) <- document("www.ebay.com/", S), subelem(S, ?.p.?.a, X)',
    "nexturl(S, X) <- nextlink(_, S), subatt(S, href, X)",
    "nextpage(S, X) <- nexturl(_, S), document(S, X), subelem(S, .body, X)",
)


def crawl_program():
    program = figure5_program()
    for rule in NEXT_PAGE_RULES:
        program.add_rule(parse_rule(rule))
    return program


def listing_url(page: int) -> str:
    return LISTING_URL if page == 0 else f"{LISTING_URL}/page/{page + 1}"


class Sources:
    """The mutable ground truth behind the pages, rendered into two webs."""

    def __init__(self, rng: random.Random, webs: List[SimulatedWeb]) -> None:
        self.rng = rng
        self.webs = webs
        self.prices = competitor_prices(8, seed=rng.randrange(2 ** 31))
        self.flights = generate_flights(12, seed=rng.randrange(2 ** 31))
        self.listing = [
            generate_items(rng.randint(2, 6), seed=rng.randrange(2 ** 31))
            for _ in range(rng.randint(1, 3))
        ]
        self.publish(SHOP_URL, competitor_page("Competitor 1", self.prices))
        self.publish(BOARD_URL, departures_page("Vienna", self.flights))
        self.publish_listing(range(len(self.listing)))

    def publish(self, url: str, html: str) -> None:
        for web in self.webs:
            web.publish(url, html)

    def publish_listing(self, pages) -> None:
        last = len(self.listing) - 1
        for page in pages:
            following = listing_url(page + 1) if page < last else None
            self.publish(
                listing_url(page),
                render_page(self.listing[page], next_page_url=following),
            )

    def listing_urls(self) -> List[str]:
        return [listing_url(page) for page in range(len(self.listing))]

    def mutate(self) -> None:
        rng = self.rng
        if rng.random() < MUTATE:
            index = rng.randrange(len(self.prices))
            entry = self.prices[index]
            rise = rng.randint(1, 500) / 100
            self.prices[index] = replace(entry, price=round(entry.price + rise, 2))
            self.publish(SHOP_URL, competitor_page("Competitor 1", self.prices))
        if rng.random() < MUTATE:
            index = rng.randrange(len(self.flights))
            status = rng.choice([s for s in STATUSES if s != self.flights[index].status])
            self.flights[index] = self.flights[index].with_status(status)
            self.publish(BOARD_URL, departures_page("Vienna", self.flights))
        if rng.random() < MUTATE:
            # Any page of the listing, the crawled follow-up pages included.
            page = rng.randrange(len(self.listing))
            items = self.listing[page]
            index = rng.randrange(len(items))
            items[index] = replace(items[index], bids=items[index].bids + 1)
            self.publish_listing([page])
        if rng.random() < RESIZE:
            # The listing grows or shrinks: the last page's pager changes.
            before = len(self.listing)
            if before < 3 and (before == 1 or rng.random() < 0.5):
                self.listing.append(
                    generate_items(rng.randint(2, 6), seed=rng.randrange(2 ** 31))
                )
            else:
                self.listing.pop()
                for web in self.webs:
                    web.remove(listing_url(before - 1))
            self.publish_listing(range(min(before, len(self.listing)) - 1, len(self.listing)))


def _fetch_succeeds(plan: FaultPlan, url: str) -> bool:
    """Replay one resilient fetch: up to ``ATTEMPTS`` decisions of ``plan``."""
    return any(plan.decide(url).error is None for _ in range(ATTEMPTS))


def _extraction_succeeds(plan: FaultPlan, urls: List[str]) -> bool:
    """Replay the fetches one extraction makes of ``urls``, start page first.

    A failed start fetch fails the extraction.  A failed crawl target is
    retried in the extraction's next round, which the plan's bounded
    failure streak lets through.
    """
    if not _fetch_succeeds(plan, urls[0]):
        return False
    for url in urls[1:]:
        if not _fetch_succeeds(plan, url):
            assert _fetch_succeeds(plan, url)
    return True


def _stale(document):
    stale = document.copy()
    stale.attributes["stale"] = "true"
    return stale


def test_traced_ticks_match_fresh_extraction_over_a_fault_free_mirror(monkeypatch):
    rng = random.Random(f"change-driven/{SEED}")
    web, mirror = SimulatedWeb(), SimulatedWeb()
    sources = Sources(rng, [web, mirror])
    wrappers = {
        "shop": (parse_elog(PRICE_WRAPPER), SHOP_URL, ("offer", "product")),
        "board": (parse_elog(BOARD_WRAPPER), BOARD_URL, ("flight", "number")),
        "listing": (crawl_program(), LISTING_URL, ("record", "itemdes")),
    }

    server = TransformationServer()
    pipelines, mirror_gates = {}, {}
    for name, (program, url, (record, key)) in wrappers.items():
        pipelines[name] = (
            Pipeline.builder(name, resilience=POLICY)
            .wrapper(name, program, web, url)
            .deliver(XmlDeliverer(f"{name}_out"), name="gate",
                     on_change=ChangeDetector(record, key=key))
            .build()
        )
        pipelines[name].serve(server)
        mirror_gates[name] = ChangeGatedDeliverer(
            "gate", XmlDeliverer(f"{name}_out"), ChangeDetector(record, key=key)
        )

    extractions = []
    extract = Extractor.extract

    def counting(self, *args, **kwargs):
        if self.fetcher is not mirror:
            extractions.append(kwargs.get("url"))
        return extract(self, *args, **kwargs)

    monkeypatch.setattr(Extractor, "extract", counting)

    def fresh(name):
        program, url, _ = wrappers[name]
        output = Extractor(program, fetcher=mirror).extract_to_xml(url=url, root_name=name)
        output.attributes["source"] = url
        return output

    server.tick()  # the fault-free baseline every trace and gate starts from
    last_good = {}
    for name in wrappers:
        last_good[name] = fresh(name)
        assert to_xml(pipelines[name].last_results[name]) == to_xml(last_good[name])
        mirror_gates[name].process([last_good[name]])

    plan = FaultPlan(seed=SEED).fail_rate(FAIL_RATE, max_failures=ATTEMPTS)
    shadow = FaultPlan(seed=SEED).fail_rate(FAIL_RATE, max_failures=ATTEMPTS)
    web.install_faults(plan)
    extractions.clear()
    predicted_stale = 0
    for tick in range(TICKS):
        sources.mutate()
        urls = {"shop": [SHOP_URL], "board": [BOARD_URL], "listing": sources.listing_urls()}
        server.tick()
        for name in wrappers:
            if _extraction_succeeds(shadow, urls[name]):
                expected = last_good[name] = fresh(name)
            else:
                predicted_stale += 1
                expected = _stale(last_good[name])
            actual = pipelines[name].last_results[name]
            assert to_xml(actual) == to_xml(expected), f"tick {tick}, wrapper {name}"
            mirror_gates[name].process([expected])

    assert plan.injected["transient"] > 0 and predicted_stale > 0
    for name in wrappers:
        delivered = [d.body for d in pipelines[name].component("gate").deliveries]
        assert delivered == [d.body for d in mirror_gates[name].deliveries], name
    served = sum(info.stale_served for info in server.resilience_report().values())
    assert served == predicted_stale
    # The trace did its job: most activations extracted nothing.
    assert 0 < len(extractions) < TICKS * len(wrappers) // 2


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

BOOKS = parse_elog(
    "book(S, X) <- document(_, S), subelem(S, ?.tr, X),"
    " contains(X, (?.td, [(class, title, exact)]))\n"
    "title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)"
)
BOOKS_URL = "books-a.test/bestsellers"


@pytest.fixture
def web():
    site = SimulatedWeb()
    site.publish_many(bookstore_site(count=2, seed=3))
    return site


def _add_new_title(html: str) -> str:
    return html.replace("</table>", "<tr><td class='title'>New</td></tr></table>", 1)


@pytest.fixture
def extractions(monkeypatch):
    """The start URL of every extraction run while the test is active."""
    calls: List[str] = []
    extract = Extractor.extract

    def counting(self, *args, **kwargs):
        calls.append(kwargs.get("url"))
        return extract(self, *args, **kwargs)

    monkeypatch.setattr(Extractor, "extract", counting)
    return calls


def test_an_unchanged_page_is_neither_parsed_nor_extracted(web, extractions, monkeypatch):
    import repro.web.fetcher

    parses: List[str] = []
    parse = repro.web.fetcher.parse_html
    monkeypatch.setattr(
        repro.web.fetcher,
        "parse_html",
        lambda html, url=None: parses.append(url) or parse(html, url=url),
    )
    component = WrapperComponent("books", BOOKS, web, BOOKS_URL)
    first = component.process([])
    second = component.process([])
    assert to_xml(second) == to_xml(first)
    assert second is not first
    assert (len(extractions), len(parses)) == (1, 1)
    assert web.fetch_log.count(BOOKS_URL) == 2  # revalidated, not skipped

    web.update(BOOKS_URL, _add_new_title)
    third = component.process([])
    assert "New" in to_xml(third)
    assert (len(extractions), len(parses)) == (2, 2)


def test_a_fetcher_without_validators_re_extracts_every_tick(extractions):
    document = parse_html(bookstore_site(count=1, seed=3)[BOOKS_URL], url=BOOKS_URL)
    fetcher = StaticDocumentFetcher({BOOKS_URL: document})
    component = WrapperComponent("books", BOOKS, fetcher, BOOKS_URL)
    outputs = [to_xml(component.process([])) for _ in range(3)]
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(extractions) == 3


@pytest.mark.parametrize("aliased", [True, False], ids=["aliased-program", "own-program"])
def test_mutating_the_program_in_place_invalidates_the_trace(web, extractions, aliased):
    text = str(BOOKS)
    # Aliased: a second component over a content-equal program, whose twin
    # has already run, must still see the edit to its own program.
    first = WrapperComponent("a", parse_elog(text), web, BOOKS_URL)
    component = WrapperComponent("b", parse_elog(text), web, BOOKS_URL) if aliased else first
    if aliased:
        first.process([])
    before = component.process([])
    assert component.process([]) is not None
    runs = len(extractions)

    component.program.add_rule(
        parse_rule("price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)")
    )
    after = component.process([])
    assert len(extractions) == runs + 1
    assert "<price>" in to_xml(after) and "<price>" not in to_xml(before)


def test_downstream_in_place_mutation_never_leaks_into_the_next_tick(web):
    def vandalise(document):
        document.attributes["vandalised"] = "yes"
        for record in list(document.children):
            record.children.clear()
        return document

    pipeline = (
        Pipeline.builder("books")
        .wrapper("books", BOOKS, web, BOOKS_URL)
        .transform("vandal", vandalise)
        .build()
    )
    fresh = WrapperComponent("fresh", BOOKS, web, BOOKS_URL, root_name="books")
    clean = to_xml(fresh.process([]))
    for _ in range(3):
        results = pipeline.run()
        assert results["vandal"].attributes["vandalised"] == "yes"
    # The wrapper's output of the last run was mutated downstream; the
    # trace's stored copy was not, so a fourth run still serves it clean.
    wrapper = pipeline.component("books")
    assert to_xml(wrapper.process([])) == clean


def test_a_stale_serve_keeps_the_last_good_trace(web, extractions):
    component = WrapperComponent("books", BOOKS, web, BOOKS_URL, resilience=POLICY)
    good = to_xml(component.process([]))
    web.install_faults(FaultPlan().fail_transient(BOOKS_URL, times=ATTEMPTS))
    stale = component.process([])
    assert stale.attributes["stale"] == "true"
    # The source is back and unchanged: the trace still verifies.
    assert to_xml(component.process([])) == good
    assert len(extractions) == 2  # the first run, and the failed one
    assert component.resilience_info().stale_served == 1


def test_trace_reads_follow_the_crawl_order(extractions):
    web = SimulatedWeb()
    urls = [listing_url(page) for page in range(3)]
    for page, url in enumerate(urls):
        following = urls[page + 1] if page < 2 else None
        web.publish(url, render_page(generate_items(3, seed=page), next_page_url=following))
    component = WrapperComponent("listing", crawl_program(), web, LISTING_URL)
    component.process([])
    assert [url for url, _ in component._trace[1]] == urls
    component.process([])
    assert len(extractions) == 1
    # Only the last follow-up page changes: the trace still catches it.
    web.update(urls[2], lambda html: html.replace("bids", "bids!", 1))
    component.process([])
    assert len(extractions) == 2
    assert list(web.fetch_log)[-3:] == urls  # verification stopped at page 3, no refetch

