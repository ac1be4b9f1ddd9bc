"""Read-only shared hand-over in the information pipe.

Inside :meth:`~repro.server.pipeline.Pipeline.run` a wrapper hands
over its stored output itself, and the integrate, join, filter and sort
stages link their input elements into their outputs instead of copying
them.  Only a stage that may mutate its input (a transform, a deliverer, a
custom stage) gets a copy.  The invariant: nothing reachable from a stored
output (a wrapper's last good output, a cut-off memo, a query component's
last good output) ever reaches code that may mutate it.

The differential test runs the same seeded schedule of page rewrites,
fetch faults and supplier outages through two pipelines: one with
transforms that vandalise their inputs in place behind a wrapper, an
integrate stage and a stale-serving query component, and one without.
Every shared stage's output must agree every tick.  ``CHAOS_SEED`` (the
environment variable) picks the schedule and the fault seed, as in
``tests/server/test_early_cutoff.py``.
"""

from __future__ import annotations

import os
import random
from dataclasses import replace
from typing import List

import pytest

from repro import Pipeline, ResiliencePolicy, RetryPolicy
from repro.api import ChangeDetector, XmlDeliverer
from repro.elog import parse_elog
from repro.mdatalog import MonadicProgram
from repro.resilience import FaultPlan, TransientFetchError
from repro.tree import tree
from repro.web import SimulatedWeb
from repro.web.sites.markets import competitor_page, competitor_prices
from repro.xmlgen import XmlElement
from repro.xmlgen.serializer import parse_xml, to_compact_xml, to_xml

SEED = int(os.environ.get("CHAOS_SEED", "20261019"))

TICKS = 150
ATTEMPTS = 2
FAIL_RATE = 0.15
MUTATE = 0.15
OUTAGE = 0.2

POLICY = ResiliencePolicy(
    retry=RetryPolicy(max_attempts=ATTEMPTS, backoff_base_s=0.0, jitter=0.0),
    breaker_threshold=ATTEMPTS + 1,
)

PRICE_WRAPPER = parse_elog("""
offer(S, X)   <- document(_, S), subelem(S, ?.tr, X)
product(S, X) <- offer(_, S), subelem(S, (?.td, [(class, product, exact)]), X)
price(S, X)   <- offer(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
""")
ITALIC = MonadicProgram.parse(
    "italic(X) :- label_i(X). italic(X) :- italic(X0), firstchild(X0, X).",
    query_predicates=["italic"],
)
SHOPS = ("shop_1", "shop_2", "shop_3")
TREES = (
    tree(("doc", ("i", ("b",), ("a",)), ("p",))),
    tree(("doc", ("p", ("i",), ("i", ("a",))))),
    tree(("doc", ("a",), ("i", ("i",), ("b",)))),
)
VANDALS = {"vandal_wrapper": "shop_1", "vandal_market": "market", "vandal_query": "italics"}


def shop_url(name: str) -> str:
    return f"competitor-{name[-1]}.test/prices"


def vandalise(document: XmlElement) -> XmlElement:
    """Edits every part of its input in place: the root, each element's
    attributes and text, and each record's children."""
    document.attributes["vandalised"] = "yes"
    for element in list(document.iter()):
        element.attributes["seen"] = "vandal"
        element.text = element.text.upper() + "!"
    for record in document.children:
        record.children.clear()
    document.append(XmlElement("graffiti"))
    return document


class Feed:
    """The query component's document supplier: a rotating tree, down now
    and then (every attempt of an activation fails, so it serves stale)."""

    def __init__(self) -> None:
        self.index = 0
        self.down = False

    def __call__(self):
        if self.down:
            raise TransientFetchError("feed down")
        return TREES[self.index]


def build(name: str, web: SimulatedWeb, feed: Feed, *, vandals: bool):
    builder = Pipeline.builder(name, resilience=POLICY)
    for shop in SHOPS:
        builder.wrapper(shop, PRICE_WRAPPER, web, shop_url(shop))
    builder.integrate("market", inputs=list(SHOPS)).deliver(
        XmlDeliverer("market_out"), name="market_gate",
        on_change=ChangeDetector("offer", key="product"),
    )
    builder.query("italics", ITALIC, feed)
    if vandals:
        for vandal, upstream in VANDALS.items():
            builder.transform(vandal, vandalise, inputs=[upstream])
    return builder.build()


def test_in_place_transforms_never_change_the_next_ticks_outputs():
    rng = random.Random(f"shared-handover/{SEED}")
    prices = {shop: competitor_prices(6, seed=rng.randrange(2 ** 31)) for shop in SHOPS}
    webs = [SimulatedWeb(), SimulatedWeb()]
    feed = Feed()

    def publish(shop: str) -> None:
        for web in webs:
            web.publish(shop_url(shop), competitor_page(shop, prices[shop]))

    for shop in SHOPS:
        publish(shop)
    vandalised = build("vandalised", webs[0], feed, vandals=True)
    clean = build("clean", webs[1], feed, vandals=False)
    shared_ticks = []

    def tick(label: str) -> None:
        before = vandalised.last_results.get("shop_1")
        for pipeline in (vandalised, clean):
            pipeline.run()
        shared_ticks.append(vandalised.last_results["shop_1"] is before)
        for component in clean.components():
            name = component.name
            if name == "italics":
                # Not shared: the vandal behind it gets (and edits) that
                # very object.  Its input is checked below instead.
                continue
            assert to_xml(vandalised.last_results[name]) == to_xml(clean.last_results[name]), (
                f"{label}, stage {name}"
            )
        for vandal, upstream in VANDALS.items():
            expected = vandalise(clean.last_results[upstream].copy())
            assert to_xml(vandalised.last_results[vandal]) == to_xml(expected), (
                f"{label}, stage {vandal}"
            )
        assert [d.body for d in vandalised.component("market_gate").deliveries] == [
            d.body for d in clean.component("market_gate").deliveries
        ], label

    tick("baseline")
    for web in webs:
        web.install_faults(FaultPlan(seed=SEED).fail_rate(FAIL_RATE, max_failures=ATTEMPTS))
    for index in range(TICKS):
        for shop, entries in prices.items():
            if rng.random() < MUTATE:
                item = rng.randrange(len(entries))
                price = round(entries[item].price + rng.randint(1, 500) / 100, 2)
                entries[item] = replace(entries[item], price=price)
                publish(shop)
        feed.down = rng.random() < OUTAGE
        if rng.random() < MUTATE:
            feed.index = rng.randrange(len(TREES))
        tick(f"tick {index}")

    report = vandalised.resilience_report()
    # The schedule reached every path: trace hits (the same stored object
    # handed over again), stale serves of the wrappers and of the query
    # component, and gated deliveries.
    assert any(shared_ticks)
    assert report["italics"].stale_served > 0
    assert sum(report[shop].stale_served for shop in SHOPS) > 0
    assert vandalised.component("market_gate").deliveries


# ---------------------------------------------------------------------------
# Identity and serialisation
# ---------------------------------------------------------------------------


@pytest.fixture
def web():
    site = SimulatedWeb()
    for shop in SHOPS[:2]:
        site.publish(shop_url(shop), competitor_page(shop, competitor_prices(4, seed=7)))
    return site


def _raise_first_price(html: str) -> str:
    return html.replace(".", "9.", 1)


def test_a_trace_hit_hands_the_integrate_stage_the_stored_output_itself(web):
    builder = Pipeline.builder("market")
    for shop in SHOPS[:2]:
        builder.wrapper(shop, PRICE_WRAPPER, web, shop_url(shop))
    pipeline = builder.integrate("market", inputs=list(SHOPS[:2])).build()
    first = pipeline.run()
    # shop_2's page changes, so the integrate runs again while shop_1's
    # trace verifies.
    web.update(shop_url("shop_2"), _raise_first_price)
    results = pipeline.run()
    assert results["market"] is not first["market"]
    hit, fresh = (pipeline.component(shop) for shop in SHOPS[:2])
    assert results["shop_1"] is hit._last_good is first["shop_1"]
    assert results["market"].children[0] is hit._last_good
    assert results["market"].children[1] is fresh._last_good is results["shop_2"]
    # A direct caller still gets a document of its own.
    own = hit.process([])
    assert own is not hit._last_good
    assert all(a is not b for a, b in zip(own.iter(), hit._last_good.iter()))
    assert to_xml(own) == to_xml(hit._last_good)


@pytest.mark.parametrize("vandal_first", [True, False], ids=["vandal-first", "integrate-first"])
def test_an_output_a_cut_off_stage_links_reaches_a_transform_as_a_copy(vandal_first):
    # The source draws a new revision every run, so nothing is cut off;
    # the integrate still links the source's output into its own, and the
    # gate behind it must observe it as the source produced it.
    builder = Pipeline.builder("linked").source("doc", lambda: parse_xml(
        "<doc><offer><product>Lamp</product></offer></doc>"
    ))
    stages = [
        lambda: builder.transform("vandal", vandalise, inputs=["doc"]),
        lambda: builder.integrate("all", inputs=["doc"]).deliver(
            XmlDeliverer("out"), name="gate", inputs=["all"], deliver_initial=True,
            on_change=ChangeDetector("offer", key="product"),
        ),
    ]
    for add in stages if vandal_first else reversed(stages):
        add()
    pipeline = builder.build()
    for _ in range(2):
        results = pipeline.run()
        assert to_compact_xml(results["all"]) == (
            "<all><doc><offer><product>Lamp</product></offer></doc></all>"
        )
        assert 'vandalised="yes"' in to_compact_xml(results["vandal"])
    assert "LAMP" not in pipeline.component("gate").deliveries[0].body


def test_filter_and_sort_stages_share_their_records(web):
    results = (
        Pipeline.builder("offers")
        .wrapper("shop_1", PRICE_WRAPPER, web, shop_url("shop_1"))
        .filter("named", "offer", lambda record: bool(record.findtext("product")))
        .sort("by_price", "offer", "price")
        .build()
        .run()
    )
    stored: List[XmlElement] = list(results["shop_1"].iter("offer"))
    for stage in ("named", "by_price"):
        records = results[stage].children
        assert len(records) == len(stored)
        assert all(any(record is offer for offer in stored) for record in records)


def test_one_subtree_under_two_parents_serialises_as_two_copies_would():
    shared = XmlElement("offer", {"id": "7"})
    shared.add("product", "Lamp & Shade")
    shared.add("price", "12.50")
    root = XmlElement("market")
    for shop in ("shop_1", "shop_2"):
        root.add(shop).append(shared)
    assert root.children[0].children[0] is root.children[1].children[0]
    unshared = root.copy()
    assert unshared.children[0].children[0] is not unshared.children[1].children[0]

    offer = '<offer id="7"><product>Lamp &amp; Shade</product><price>12.50</price></offer>'
    assert to_compact_xml(root) == to_compact_xml(unshared) == (
        f"<market><shop_1>{offer}</shop_1><shop_2>{offer}</shop_2></market>"
    )
    assert to_xml(root) == to_xml(unshared)
    assert to_xml(root.children[0], declaration=False).replace("shop_1", "shop_2") == to_xml(
        root.children[1], declaration=False
    )
    assert parse_xml(to_xml(root)) == unshared
