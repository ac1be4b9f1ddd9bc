"""Integration tests for the Section 6 application scenarios (E14-E17)."""

from __future__ import annotations


from repro.api import Pipeline
from repro.elog import parse_elog
from repro.elog.concepts import parse_number
from repro.server import (
    ChangeDetector,
    ChangeGatedDeliverer,
    FilterComponent,
    IntegrationComponent,
    JoinComponent,
    RenameComponent,
    SmsDeliverer,
    SortComponent,
    TransformationServer,
    WrapperComponent,
    XmlDeliverer,
)
from repro.web import SimulatedWeb
from repro.web.sites.flights import advance_statuses, departures_page, generate_flights
from repro.web.sites.markets import competitor_sites
from repro.web.sites.music import now_playing_site, stations
from repro.web.sites.news import press_clipping_site


RADIO_WRAPPER = parse_elog(
    """
    playing(S, X) <- document(_, S), subelem(S, (?.div, [(class, nowplaying, exact)]), X)
    song(S, X)    <- playing(_, S), subelem(S, (?.span, [(class, song, exact)]), X)
    artist(S, X)  <- playing(_, S), subelem(S, (?.span, [(class, artist, exact)]), X)
    """
)
CHART_WRAPPER = parse_elog(
    """
    entry(S, X)    <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, pos, exact)]))
    position(S, X) <- entry(_, S), subelem(S, (?.td, [(class, pos, exact)]), X)
    song(S, X)     <- entry(_, S), subelem(S, (?.td, [(class, song, exact)]), X)
    """
)


def test_now_playing_pipeline_joins_radio_and_charts():
    """E14: the Now Playing application (Section 6.1)."""
    web = SimulatedWeb()
    web.publish_many(now_playing_site(station_count=3, chart_count=1, seed=8))
    builder = Pipeline.builder("nowplaying")
    names = []
    for station in stations(3, seed=8):
        name = station.name.replace(" ", "_").lower()
        names.append(name)
        builder.stage(
            WrapperComponent(name, RADIO_WRAPPER, web, station.url, root_name="station"),
            is_source=True,
        )
    builder.stage(
        WrapperComponent("chart", CHART_WRAPPER, web, "charts-1.test/top", root_name="chart"),
        is_source=True,
    )
    builder.stage(IntegrationComponent("stations"), inputs=names)
    builder.stage(
        JoinComponent("joined", "playing", "entry", key="song"),
        inputs=["stations", "chart"],
    )
    results = builder.build().run()
    playing = results["joined"].find_all("playing")
    assert len(playing) == 3
    assert all(p.findtext("song") for p in playing)
    # every currently-playing song that occurs in the chart got its entry
    for p in playing:
        entries = p.find_all("entry")
        for entry in entries:
            assert entry.findtext("song").lower() == p.findtext("song").lower()


def test_flight_monitor_sends_sms_only_on_change():
    """E15: flight schedule monitoring (Section 6.2)."""
    flights = generate_flights(5, seed=6)
    watched = flights[1].number
    url = "vienna-airport.test/departures"
    web = SimulatedWeb()
    web.publish(url, departures_page("Vienna", flights))
    wrapper = parse_elog(
        """
        flight(S, X) <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, flight, exact)]))
        number(S, X) <- flight(_, S), subelem(S, (?.td, [(class, flight, exact)]), X)
        status(S, X) <- flight(_, S), subelem(S, (?.td, [(class, status, exact)]), X)
        """
    )
    sms = SmsDeliverer("sms", "+43 1", summarise=lambda doc: doc.full_text())
    gate = ChangeGatedDeliverer("gate", sms, ChangeDetector("flight", key="number"))
    pipeline = (
        Pipeline.builder("flights")
        .stage(WrapperComponent("board", wrapper, web, url, root_name="departures"), is_source=True)
        .stage(FilterComponent("watch", "flight", lambda f: f.findtext("number") == watched))
        .stage(gate)
        .build()
    )
    server = TransformationServer()
    server.register(pipeline)
    server.tick(2)
    assert sms.deliveries == []
    web.publish(url, departures_page("Vienna", advance_statuses(flights, {watched: "cancelled"})))
    server.tick()
    assert len(sms.deliveries) == 1
    assert "cancelled" in sms.deliveries[0].body


def test_press_clipping_produces_nitf_output():
    """E16: press clipping with NITF renaming (Section 6.3)."""
    web = SimulatedWeb()
    web.publish_many(press_clipping_site(count=5, seed=4))
    news_wrapper = parse_elog(
        """
        article(S, X)  <- document(_, S), subelem(S, (?.div, [(class, article, exact)]), X)
        headline(S, X) <- article(_, S), subelem(S, (?.h2, [(class, headline, exact)]), X)
        date(S, X)     <- article(_, S), subelem(S, (?.span, [(class, date, exact)]), X)
        """
    )
    quotes_wrapper = parse_elog(
        """
        quote(S, X)   <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, company, exact)]))
        company(S, X) <- quote(_, S), subelem(S, (?.td, [(class, company, exact)]), X)
        price(S, X)   <- quote(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
        """
    )
    pipe = (
        Pipeline.builder("clipping")
        .stage(
            WrapperComponent("press", news_wrapper, web, "financial-daily.test/news", root_name="news"),
            is_source=True,
        )
        .stage(
            WrapperComponent("quotes", quotes_wrapper, web, "exchange.test/quotes", root_name="quotes"),
            is_source=True,
        )
        .stage(IntegrationComponent("merge", root_name="clipping"), inputs=["press", "quotes"])
        .stage(RenameComponent("nitf", {"article": "block", "headline": "hl1", "clipping": "nitf"}))
        .stage(XmlDeliverer("deliver"))
        .build()
    )
    results = pipe.run()
    nitf = results["nitf"]
    assert nitf.name == "nitf"
    assert len(list(nitf.iter("block"))) == 5
    assert len(list(nitf.iter("hl1"))) == 5
    assert len(list(nitf.iter("quote"))) == 5
    assert pipe.component("deliver").last_delivery() is not None


def test_price_monitoring_finds_cheapest_competitor():
    """E17: business-intelligence price monitoring (Section 6.6)."""
    web = SimulatedWeb()
    web.publish_many(competitor_sites(shops=3, count=6, seed=2))
    wrapper = parse_elog(
        """
        offer(S, X)   <- document(_, S), subelem(S, ?.tr, X)
        product(S, X) <- offer(_, S), subelem(S, (?.td, [(class, product, exact)]), X)
        price(S, X)   <- offer(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
        """
    )
    builder = Pipeline.builder("prices")
    shops = [f"shop{index + 1}" for index in range(3)]
    for index, shop in enumerate(shops):
        builder.stage(
            WrapperComponent(
                shop, wrapper, web, f"competitor-{index + 1}.test/prices", root_name=shop
            ),
            is_source=True,
        )
    builder.stage(IntegrationComponent("merge", root_name="market"), inputs=shops)
    builder.stage(SortComponent("cheapest_first", "offer", "price", root_name="ranking"))
    results = builder.build().run()
    offers = results["cheapest_first"].find_all("offer")
    assert len(offers) == 18
    prices = [parse_number(o.findtext("price")) for o in offers]
    assert prices == sorted(prices)
