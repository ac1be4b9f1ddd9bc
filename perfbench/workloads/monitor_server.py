"""``monitor_server``: the Transformation Server monitoring its sources.

Each request is one ``TransformationServer.tick()`` over three pipelines
built with ``Pipeline.builder()``:

* a price watch — 6 competitor wrappers, integrated, an e-mail deliverer
  behind a ``ChangeDetector`` gate;
* a flight board — one wrapper, a destination filter, an SMS deliverer
  behind a ``ChangeDetector`` gate;
* a ``DatalogQueryComponent`` rotating over a working set of 4 trees, so
  after the first rotation every evaluation is a fixpoint-cache hit.

Between ticks the generator rewrites a seeded ~10% of the pages with
``SimulatedWeb.update`` (competitor prices rise, flight statuses change).
Every wrapper runs under a ``ResiliencePolicy`` (two attempts, no backoff)
over a seeded ``FaultPlan.fail_rate`` of 2%; a fetch that fails both
attempts is served stale.

The alerts delivered and the stale outputs served are predicted exactly by
replaying the mutation schedule against a second ``FaultPlan`` with the
same seed: the plan decides per (URL, fetch number), so the replay sees the
same faults as the server did.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Tuple

from perfbench.layers import add_cache, session_counters

from repro import Pipeline, ResiliencePolicy, RetryPolicy, Session
from repro.api import ChangeDetector, EmailDeliverer, SmsDeliverer
from repro.bench import chain_program, scaling_tree
from repro.resilience.faults import FaultPlan
from repro.server import TransformationServer
from repro.web import SimulatedWeb
from repro.web.sites.flights import CITIES, STATUSES, Flight, departures_page
from repro.web.sites.markets import PRODUCTS, PriceEntry, competitor_page

SHOPS = 6
ITEMS_PER_SHOP = 12
FLIGHTS = 20
WATCHED = ("Paris", "London", "Rome")
QUERY_TREES = 4
QUERY_TREE_NODES = 600
MUTATE_SHARE = 0.10
FAIL_RATE = 0.02
ATTEMPTS = 2
SCHEDULE_TICKS = 4000
BOARD_URL = "vienna-airport.test/departures"

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

#: One page rewrite: (url, new html, the page's records afterwards).
Mutation = Tuple[str, str, tuple]


def shop_url(shop: int) -> str:
    return f"competitor-{shop + 1}.test/prices"


def watched_flight(record) -> bool:
    return record.findtext("dest") in WATCHED


def sms_text(document) -> str:
    return document.full_text()


def _shop_records(entries: List[PriceEntry]) -> tuple:
    return tuple((entry.product, f"{entry.price:.2f}") for entry in entries)


def _board_records(flights: List[Flight]) -> tuple:
    return tuple((flight.number, flight.destination, flight.status) for flight in flights)


def generate(seed: int):
    """Initial pages + their records, the mutation schedule, query trees."""
    rng = random.Random(f"monitor_server/{seed}")
    shops = [
        [
            PriceEntry(f"{PRODUCTS[item % len(PRODUCTS)]} {shop + 1}-{item + 1}",
                       round(rng.uniform(10, 300), 2))
            for item in range(ITEMS_PER_SHOP)
        ]
        for shop in range(SHOPS)
    ]
    flights = [
        Flight(
            number=f"OS {100 + index}",
            origin="Vienna",
            destination=rng.choice([city for city in CITIES if city != "Vienna"]),
            scheduled=f"{rng.randint(6, 22):02d}:{rng.choice(('00', '15', '30', '45'))}",
            status=rng.choice(STATUSES),
        )
        for index in range(FLIGHTS)
    ]
    pages = {shop_url(shop): competitor_page(f"Competitor {shop + 1}", entries)
             for shop, entries in enumerate(shops)}
    pages[BOARD_URL] = departures_page("Vienna", flights)
    records = {shop_url(shop): _shop_records(entries) for shop, entries in enumerate(shops)}
    records[BOARD_URL] = _board_records(flights)

    schedule: List[List[Mutation]] = []
    for _ in range(SCHEDULE_TICKS):
        rewrites: List[Mutation] = []
        for shop, entries in enumerate(shops):
            if rng.random() < MUTATE_SHARE:
                for item in rng.sample(range(ITEMS_PER_SHOP), rng.randint(1, 2)):
                    rise = rng.randint(1, 500) / 100.0
                    entries[item] = PriceEntry(entries[item].product,
                                               round(entries[item].price + rise, 2))
                rewrites.append((shop_url(shop),
                                 competitor_page(f"Competitor {shop + 1}", entries),
                                 _shop_records(entries)))
        if rng.random() < MUTATE_SHARE:
            for index in rng.sample(range(FLIGHTS), rng.randint(1, 2)):
                status = rng.choice([s for s in STATUSES if s != flights[index].status])
                flights[index] = flights[index].with_status(status)
            rewrites.append((BOARD_URL, departures_page("Vienna", flights),
                             _board_records(flights)))
        schedule.append(rewrites)
    trees = [scaling_tree(QUERY_TREE_NODES, seed=rng.randrange(2 ** 31))
             for _ in range(QUERY_TREES)]
    return pages, records, schedule, trees, rng.randrange(2 ** 31)


def _fetch_succeeds(plan: FaultPlan, url: str) -> bool:
    """Replay one resilient fetch: up to ``ATTEMPTS`` decisions of ``plan``."""
    return any(plan.decide(url).error is None for _ in range(ATTEMPTS))


class Workload:
    name = "monitor_server"

    def __init__(self, seed: int) -> None:
        (self.pages, self.records, self.schedule,
         self.trees, self.fault_seed) = generate(seed)
        self.problems: List[str] = []
        self.summary = {
            "pages": len(self.pages),
            "records": SHOPS * ITEMS_PER_SHOP + FLIGHTS,
            "query_trees": QUERY_TREES,
            "query_tree_nodes": QUERY_TREE_NODES,
            "scheduled_rewrites": sum(len(rewrites) for rewrites in self.schedule),
            "fail_rate": FAIL_RATE,
        }

    def _plan(self) -> FaultPlan:
        return FaultPlan(seed=self.fault_seed).fail_rate(FAIL_RATE, max_failures=ATTEMPTS)

    def setup(self) -> None:
        self.web = web = SimulatedWeb()
        web.publish_many(self.pages)
        self.session = session = Session()
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=ATTEMPTS, backoff_base_s=0.0, jitter=0.0),
            breaker_threshold=ATTEMPTS + 1,
        )
        self.email = EmailDeliverer("alerts", "analyst@example.test", subject="price change")
        self.sms = SmsDeliverer("sms", "+43 660 0000", summarise=sms_text)

        prices = Pipeline.builder("price-watch", session=session, resilience=policy)
        shops = [f"shop_{shop + 1}" for shop in range(SHOPS)]
        for shop, name in enumerate(shops):
            prices.wrapper(name, PRICE_WRAPPER, web, shop_url(shop), root_name=name)
        self.prices = (
            prices.integrate("market", inputs=shops, root_name="market")
            .deliver(self.email, name="price_gate",
                     on_change=ChangeDetector("offer", key="product"))
            .build()
        )
        board = (
            Pipeline.builder("flight-board", session=session, resilience=policy)
            .wrapper("board", BOARD_WRAPPER, web, BOARD_URL, root_name="departures")
            .filter("watched", "flight", watched_flight, root_name="watchlist")
            .deliver(self.sms, name="flight_gate",
                     on_change=ChangeDetector("flight", key="number"))
            .build()
        )
        trees = (
            Pipeline.builder("tree-watch", session=session, resilience=policy)
            .query("trees", chain_program(40), itertools.cycle(self.trees).__next__)
            .build()
        )
        self.server = server = TransformationServer()
        for pipeline in (self.prices, board, trees):
            pipeline.serve(server)
        self.query = trees.component("trees")
        server.tick()  # the baseline every change gate compares against
        self.plan = self._plan()
        web.install_faults(self.plan)
        self.ticks = 0

    def between(self, index: int) -> None:
        for url, html, _ in self.schedule[self.ticks % SCHEDULE_TICKS]:
            self.web.update(url, lambda _old, html=html: html)

    def request(self, index: int):
        ran = self.server.tick()
        self.ticks += 1
        return ran

    def check(self, index: int, output) -> None:
        if len(output) != 3:
            self.problems.append(f"tick {index}: ran {output}")
        offers = sum(1 for _ in self.prices.last_results["market"].iter("offer"))
        if offers != SHOPS * ITEMS_PER_SHOP:
            self.problems.append(f"tick {index}: {offers} integrated offers, "
                                 f"expected {SHOPS * ITEMS_PER_SHOP}")

    def predict(self) -> Tuple[int, int]:
        """``(alerts, stale outputs)`` the schedule and fault plan imply."""
        shadow = self._plan()
        current = dict(self.records)
        observed = dict(self.records)
        shop_urls = [shop_url(shop) for shop in range(SHOPS)]

        def snapshots():
            market = tuple(observed[url] for url in shop_urls)
            watchlist = tuple(r for r in observed[BOARD_URL] if r[1] in WATCHED)
            return market, watchlist

        last = snapshots()
        alerts = stale = 0
        for tick in range(self.ticks):
            for url, _, records in self.schedule[tick % SCHEDULE_TICKS]:
                current[url] = records
            for url in shop_urls + [BOARD_URL]:
                if _fetch_succeeds(shadow, url):
                    observed[url] = current[url]
                else:
                    stale += 1
            now = snapshots()
            alerts += sum(1 for before, after in zip(last, now) if before != after)
            last = now
        return alerts, stale

    def final_checks(self) -> None:
        alerts, stale = self.predict()
        delivered = len(self.email.deliveries) + len(self.sms.deliveries)
        if delivered != alerts:
            self.problems.append(f"{delivered} alerts delivered, {alerts} predicted")
        served = sum(info.stale_served for info in self.server.resilience_report().values())
        if served != stale:
            self.problems.append(f"{served} stale outputs served, {stale} predicted")
        self.summary.update(
            ticks=self.ticks,
            rewrites_applied=sum(len(self.schedule[tick % SCHEDULE_TICKS])
                                 for tick in range(self.ticks)),
            injected_faults=self.plan.injected["transient"],
            alerts=delivered,
            stale_outputs=stale,
        )

    def counters(self) -> Dict[str, float]:
        counts = session_counters(self.session)
        report = self.server.resilience_report().values()
        counts["resilience.retries"] = sum(info.retries for info in report)
        counts["resilience.stale_served"] = sum(info.stale_served for info in report)
        counts["resilience.breaker_trips"] = sum(info.breaker_trips for info in report)
        counts["web.fetch.failed"] = len(self.web.error_log)
        counts["monitoring.alerts"] = len(self.email.deliveries) + len(self.sms.deliveries)
        counts["source.activations"] = self.ticks * (SHOPS + 1)  # wrappers
        add_cache(counts, "mdatalog.ground_cache", self.query.cache_info())
        return counts
