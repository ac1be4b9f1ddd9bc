"""Early cutoff in the information pipe.

Every output in a :class:`~repro.server.pipeline.Pipeline` run
carries a revision.  A traced :class:`WrapperComponent` keeps its revision
while its pages are unchanged; an integrate, join, filter, sort, rename or
change-gate stage whose input revisions equal those of its last completed
run does not run, and its previous output stands.

The differential test builds the same DAGs twice, from the same seeded
mutation schedule and fault plan:

* *traced* — ``WrapperComponent`` sources over a faulty ``SimulatedWeb``;
* *fresh* — ``XmlSourceComponent`` suppliers that extract each page anew
  from a fault-free mirror, or serve the last good output marked stale
  when a replay of the fault plan says the fetch failed.  A supplier draws
  a fresh revision every run, so nothing downstream of it is ever cut off.

Every tick, every stage's XML, every delivery and every gate's
``stale_skips`` must be equal across the two.  ``CHAOS_SEED`` (the
environment variable) picks the schedule and the fault seed, as in
``tests/server/test_change_driven_ticks.py``.
"""

from __future__ import annotations

import os
import random
from dataclasses import replace
from typing import Callable, Dict, List

import pytest

from repro import Pipeline, ResiliencePolicy, RetryPolicy
from repro.api import ChangeDetector, XmlDeliverer
from repro.elog import Extractor, parse_elog
from repro.resilience import FaultPlan
from repro.server.components import (
    FilterComponent,
    IntegrationComponent,
    WrapperComponent,
)
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import bookstore_site
from repro.web.sites.flights import STATUSES, departures_page, generate_flights
from repro.web.sites.markets import competitor_page, competitor_prices
from repro.xmlgen import XmlElement
from repro.xmlgen.serializer import to_xml

SEED = int(os.environ.get("CHAOS_SEED", "20261018"))

TICKS = 200
ATTEMPTS = 2
FAIL_RATE = 0.15
MUTATE = 0.12

POLICY = ResiliencePolicy(
    retry=RetryPolicy(max_attempts=ATTEMPTS, backoff_base_s=0.0, jitter=0.0),
    breaker_threshold=ATTEMPTS + 1,
)

PRICE_WRAPPER = parse_elog("""
offer(S, X)   <- document(_, S), subelem(S, ?.tr, X)
product(S, X) <- offer(_, S), subelem(S, (?.td, [(class, product, exact)]), X)
price(S, X)   <- offer(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
""")
BOARD_WRAPPER = parse_elog("""
flight(S, X) <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, flight, exact)]))
number(S, X) <- flight(_, S), subelem(S, (?.td, [(class, flight, exact)]), X)
status(S, X) <- flight(_, S), subelem(S, (?.td, [(class, status, exact)]), X)
""")
BOARD_URL = "vienna-airport.test/departures"
GATES = ("market_gate", "board_gate", "raw_gate")
MARKET_SHOPS = ("shop_1", "shop_2", "shop_3")
#: wrapper name -> (program, url)
WRAPPERS = {
    **{name: (PRICE_WRAPPER, f"competitor-{name[-1]}.test/prices") for name in MARKET_SHOPS},
    "board": (BOARD_WRAPPER, BOARD_URL),
    "solo": (PRICE_WRAPPER, "competitor-4.test/prices"),
}


def troubled(record: XmlElement) -> bool:
    return record.findtext("status") in ("delayed", "cancelled")


def stamp(document: XmlElement) -> XmlElement:
    """Not idempotent: appends to its input in place."""
    document.append(XmlElement("stamp"))
    return document


def build(name: str, add_source: Callable[[object, str], object], resilience=None):
    """The three DAGs of the differential test in one pipeline.

    * three shops -> integrate -> change gate;
    * board -> filter -> change gate;
    * solo shop -> integrate -> in-place transform -> ungated deliverer;
    * board -> change gate, which sees the board's stale serves.
    """
    builder = Pipeline.builder(name, resilience=resilience)
    for source in WRAPPERS:
        add_source(builder, source)
    return (
        builder.integrate("market", inputs=list(MARKET_SHOPS))
        .deliver(XmlDeliverer("market_out"), name="market_gate",
                 on_change=ChangeDetector("offer", key="product"))
        .filter("troubled", "flight", troubled, inputs=["board"])
        .deliver(XmlDeliverer("board_out"), name="board_gate",
                 on_change=ChangeDetector("flight", key="number"))
        .integrate("solo_all", inputs=["solo"])
        .transform("stamped", stamp)
        .deliver(XmlDeliverer("solo_out"))
        .deliver(XmlDeliverer("raw_out"), name="raw_gate", inputs=["board"],
                 on_change=ChangeDetector("flight", key="number"))
        .build()
    )


class Sources:
    """The mutable ground truth behind the pages, rendered into two webs."""

    def __init__(self, rng: random.Random, webs: List[SimulatedWeb]) -> None:
        self.rng = rng
        self.webs = webs
        self.prices = {
            name: competitor_prices(8, seed=rng.randrange(2 ** 31))
            for name in WRAPPERS if name != "board"
        }
        self.flights = generate_flights(12, seed=rng.randrange(2 ** 31))
        for name in self.prices:
            self.publish_shop(name)
        self.publish(BOARD_URL, departures_page("Vienna", self.flights))

    def publish(self, url: str, html: str) -> None:
        for web in self.webs:
            web.publish(url, html)

    def publish_shop(self, name: str) -> None:
        self.publish(WRAPPERS[name][1], competitor_page(name, self.prices[name]))

    def mutate(self) -> None:
        rng = self.rng
        for name, entries in self.prices.items():
            if rng.random() < MUTATE:
                index = rng.randrange(len(entries))
                price = entries[index].price + rng.randint(1, 500) / 100
                entries[index] = replace(entries[index], price=round(price, 2))
                self.publish_shop(name)
        if rng.random() < MUTATE:
            index = rng.randrange(len(self.flights))
            status = rng.choice([s for s in STATUSES if s != self.flights[index].status])
            self.flights[index] = self.flights[index].with_status(status)
            self.publish(BOARD_URL, departures_page("Vienna", self.flights))


class FreshSuppliers:
    """Per-source suppliers that extract from scratch over the mirror.

    Once :attr:`shadow` is set, each supply first replays the faulty web's
    fetch: when every attempt fails it serves the last good output marked
    stale, as a resilient wrapper does.
    """

    def __init__(self, mirror: SimulatedWeb) -> None:
        self.mirror = mirror
        self.shadow = None
        self.last_good: Dict[str, XmlElement] = {}

    def supplier(self, name: str) -> Callable[[], XmlElement]:
        program, url = WRAPPERS[name]

        def supply() -> XmlElement:
            if self.shadow is not None and not any(
                self.shadow.decide(url).error is None for _ in range(ATTEMPTS)
            ):
                stale = self.last_good[name].copy()
                stale.attributes["stale"] = "true"
                return stale
            output = Extractor(program, fetcher=self.mirror).extract_to_xml(
                url=url, root_name=name
            )
            output.attributes["source"] = url
            self.last_good[name] = output.copy()
            return output

        return supply


def _counting(component, calls: Dict[str, int]) -> None:
    process = component.process

    def counted(inputs):
        calls[component.name] = calls.get(component.name, 0) + 1
        return process(inputs)

    component.process = counted  # an instance attribute: the type is unchanged


def test_cut_off_ticks_match_fresh_extraction_over_a_fault_free_mirror():
    rng = random.Random(f"early-cutoff/{SEED}")
    web, mirror = SimulatedWeb(), SimulatedWeb()
    sources = Sources(rng, [web, mirror])
    fresh_suppliers = FreshSuppliers(mirror)
    traced = build(
        "traced",
        lambda builder, name: builder.wrapper(name, WRAPPERS[name][0], web, WRAPPERS[name][1]),
        resilience=POLICY,
    )
    fresh = build(
        "fresh", lambda builder, name: builder.source(name, fresh_suppliers.supplier(name))
    )
    runs: Dict[str, int] = {}
    for component in traced.components():
        if component.name in ("market", "troubled", "solo_all") + GATES:
            _counting(component, runs)

    def check(tick: int) -> None:
        for component in traced.components():
            name = component.name
            assert to_xml(traced.last_results[name]) == to_xml(fresh.last_results[name]), (
                f"tick {tick}, stage {name}"
            )
        for name in GATES + ("solo_out",):
            assert [d.body for d in traced.component(name).deliveries] == [
                d.body for d in fresh.component(name).deliveries
            ], f"tick {tick}, deliverer {name}"
        for name in GATES:
            assert traced.component(name).stale_skips == fresh.component(name).stale_skips

    traced.run()
    fresh.run()
    check(-1)
    plan = FaultPlan(seed=SEED).fail_rate(FAIL_RATE, max_failures=ATTEMPTS)
    web.install_faults(plan)
    fresh_suppliers.shadow = FaultPlan(seed=SEED).fail_rate(FAIL_RATE, max_failures=ATTEMPTS)
    for tick in range(TICKS):
        sources.mutate()
        if tick == TICKS // 2:
            # A DAG edit: the solo shop joins the market.  The integrate
            # (and the gate behind it) must run on the new input list.
            for pipeline in (traced, fresh):
                pipeline._connect("solo", "market")
            before = runs["market"], runs["market_gate"]
        traced.run()
        fresh.run()
        check(tick)
        if tick == TICKS // 2:
            assert (runs["market"], runs["market_gate"]) == (before[0] + 1, before[1] + 1)
            assert len(list(traced.last_results["market"].iter("offer"))) == 4 * 8

    assert plan.injected["transient"] > 0
    assert traced.component("raw_gate").stale_skips > 0
    assert len(traced.component("solo_out").deliveries) == TICKS + 1
    # The cutoff did its job: every stage skipped some ticks, and ran on some.
    for name, count in runs.items():
        assert 1 < count < TICKS, (name, count)


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


def test_a_run_that_fails_downstream_leaves_no_stale_memo(web):
    transforms: List[int] = []

    def flaky(document):
        transforms.append(1)
        if len(transforms) == 2:
            raise RuntimeError("transform failed")
        return document

    pipeline = (
        Pipeline.builder("books")
        .wrapper("books", BOOKS, web, BOOKS_URL)
        .integrate("all", inputs=["books"])
        .transform("flaky", flaky)
        .build()
    )
    assert "New" not in to_xml(pipeline.run()["all"])
    web.update(BOOKS_URL, _add_new_title)
    with pytest.raises(RuntimeError):
        pipeline.run()  # integrates the new page, then fails
    # The page is unchanged since run 2, so the integrate is cut off; what
    # stands must be what run 2 integrated, not run 1's output.
    results = pipeline.run()
    assert "New" in to_xml(results["all"])
    assert "New" in to_xml(results["flaky"])


def test_wrapper_revisions_follow_content_and_staleness(web):
    # No breaker: two stale serves in a row need four failed fetches.
    policy = ResiliencePolicy(retry=POLICY.retry, breaker_threshold=10)
    component = WrapperComponent("books", BOOKS, web, BOOKS_URL, resilience=policy)
    component.process([])
    first = component.revision
    component.process([])
    assert component.revision == first  # trace hit after a good output
    web.install_faults(FaultPlan().fail_transient(BOOKS_URL, times=2 * ATTEMPTS))
    component.process([])
    stale_once = component.revision
    component.process([])
    assert len({first, stale_once, component.revision}) == 3  # every stale serve is new
    stale_twice = component.revision
    component.process([])
    assert component.revision not in (first, stale_once, stale_twice)  # good again
    recovered = component.revision
    component.process([])
    assert component.revision == recovered
    web.update(BOOKS_URL, _add_new_title)
    component.process([])
    assert component.revision != recovered  # fresh extraction


def test_only_built_in_stages_of_the_exact_type_are_cut_off(web):
    threshold = {"value": "A"}

    class LiveFilter(FilterComponent):
        """Its predicate reads state outside the record."""

    runs: Dict[str, int] = {}
    pipeline = (
        Pipeline.builder("books")
        .wrapper("books", BOOKS, web, BOOKS_URL)
        .stage(LiveFilter("live", "book", lambda b: b.findtext("title") >= threshold["value"]))
        .stage(IntegrationComponent("all"), inputs=["books"])
        .deliver(XmlDeliverer("out"), inputs=["all"])
        .build()
    )
    for name in ("live", "all"):
        _counting(pipeline.component(name), runs)
    for _ in range(3):
        pipeline.run()
    assert runs == {"live": 3, "all": 1}
    # An ungated deliverer delivers on every activation, cut-off input or not.
    assert len(pipeline.component("out").deliveries) == 3
    threshold["value"] = "~"
    assert not list(pipeline.run()["live"].iter("book"))


def test_sources_without_a_trace_are_never_cut_off():
    runs: Dict[str, int] = {}
    pipeline = (
        Pipeline.builder("static")
        .source("doc", lambda: XmlElement("doc"))
        .integrate("all", inputs=["doc"])
        .build()
    )
    _counting(pipeline.component("all"), runs)
    for _ in range(3):
        pipeline.run()
    assert runs == {"all": 3}


def test_a_new_edge_re_runs_the_stages_it_feeds(web):
    runs: Dict[str, int] = {}
    pipeline = (
        Pipeline.builder("books")
        .wrapper("books", BOOKS, web, BOOKS_URL)
        .wrapper("more", BOOKS, web, BOOKS_URL)
        .integrate("all", inputs=["books"])
        .deliver(XmlDeliverer("out"), name="gate", on_change=ChangeDetector("book", key="title"))
        .build()
    )
    for name in ("all", "gate"):
        _counting(pipeline.component(name), runs)
    pipeline.run()
    pipeline.run()
    assert runs == {"all": 1, "gate": 1}
    pipeline._connect("more", "all")
    results = pipeline.run()
    assert runs == {"all": 2, "gate": 2}
    assert [document.name for document in results["all"].children] == ["books", "more"]


def test_cut_off_outputs_reach_in_place_transforms_as_copies(web):
    pipeline = (
        Pipeline.builder("books")
        .wrapper("books", BOOKS, web, BOOKS_URL)
        .integrate("all", inputs=["books"])
        .transform("stamped", stamp)
        .build()
    )
    for _ in range(3):
        results = pipeline.run()
    assert len(list(results["stamped"].iter("stamp"))) == 1
    assert not list(results["all"].iter("stamp"))
