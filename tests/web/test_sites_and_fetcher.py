"""Tests for the simulated Web and the synthetic site generators."""

from __future__ import annotations

import pytest

from repro.html import parse_html
from repro.web import SimulatedWeb, StaticDocumentFetcher
from repro.web.sites.bookstore import bookstore_site
from repro.web.sites.ebay import ebay_page, ebay_site, perturb_layout
from repro.web.sites.flights import advance_statuses, departures_page, generate_flights
from repro.web.sites.markets import competitor_sites
from repro.web.sites.music import now_playing_site, stations
from repro.web.sites.news import press_clipping_site
from tests.web.sites import power_trading_site, retune_station, viticulture_page


def test_simulated_web_publish_fetch_and_log():
    web = SimulatedWeb()
    web.publish("http://Example.test/page/", "<html><body><p>hi</p></body></html>")
    assert web.has("example.test/page")
    document = web.fetch("example.test/page")
    assert document.find_first("p").normalized_text() == "hi"
    assert list(web.fetch_log) == ["example.test/page"]
    assert len(web) == 1
    with pytest.raises(KeyError):
        web.fetch("missing.test")


def test_simulated_web_update_and_lenient_matching():
    web = SimulatedWeb()
    web.publish("shop.test/list", "<body><p>v1</p></body>")
    web.update("shop.test/list", lambda html: html.replace("v1", "v2"))
    assert "v2" in web.fetch_html("shop.test/list")
    # prefix matching: a wrapper naming the site root still resolves
    assert web.has("shop.test")


def test_static_document_fetcher():
    document = parse_html("<body><p>x</p></body>", url="a.test")
    fetcher = StaticDocumentFetcher({"a.test": document})
    assert fetcher.fetch("http://a.test/") is document
    with pytest.raises(KeyError):
        fetcher.fetch("b.test")


def test_ebay_generator_is_deterministic_and_structured():
    assert ebay_page(count=5, seed=1) == ebay_page(count=5, seed=1)
    assert ebay_page(count=5, seed=1) != ebay_page(count=5, seed=2)
    document = parse_html(ebay_page(count=5, seed=1))
    listings = [t for t in document.find_all("table") if t.attributes.get("class") == "listing"]
    assert len(listings) == 5
    assert document.find_first("hr") is not None
    site = ebay_site(pages=3, items_per_page=4)
    assert len(site) == 3
    assert "page/2" in " ".join(site)


def test_perturb_layout_keeps_listings_intact():
    original = parse_html(ebay_page(count=6, seed=4))
    perturbed = parse_html(perturb_layout(ebay_page(count=6, seed=4), seed=9))
    def count(doc):
        return len(
            [t for t in doc.find_all("table") if t.attributes.get("class") == "listing"]
        )
    assert count(original) == count(perturbed) == 6
    assert len(perturbed) > len(original)


def test_bookstore_site_has_three_heterogeneous_shops():
    site = bookstore_site(count=5, seed=2)
    assert len(site) == 3
    table_doc = parse_html(site["books-a.test/bestsellers"])
    assert len(table_doc.find_all("tr")) == 6  # header + 5 books
    list_doc = parse_html(site["books-b.test/chart"])
    assert len(list_doc.find_all("li")) == 5
    div_doc = parse_html(site["books-c.test/picks"])
    entries = [d for d in div_doc.find_all("div") if d.attributes.get("class") == "entry"]
    assert len(entries) == 5


def test_music_site_covers_radio_charts_and_lyrics():
    site = now_playing_site(station_count=6, chart_count=5, seed=0)
    radio_urls = [url for url in site if "radio-" in url]
    chart_urls = [url for url in site if "charts-" in url]
    lyrics_urls = [url for url in site if "lyrics." in url]
    assert len(radio_urls) == 6 and len(chart_urls) == 5 and len(lyrics_urls) >= 8
    first = stations(1, seed=0)[0]
    retuned = retune_station(site[stations(6, seed=0)[0].url], "New Song", "New Artist")
    assert "New Song" in retuned and first.current_song not in retuned


def test_flight_generator_and_status_changes():
    flights = generate_flights(6, seed=3)
    page = departures_page("Vienna", flights)
    document = parse_html(page)
    assert len(document.find_all("tr")) == 7
    changed = advance_statuses(flights, {flights[0].number: "cancelled"})
    assert changed[0].status == "cancelled"
    assert flights[0].status != "cancelled"  # original unchanged


def test_news_markets_and_viticulture_generators():
    press = press_clipping_site(count=4, seed=1)
    assert len(press) == 3
    assert "quotes" in " ".join(press)
    competitors = competitor_sites(shops=3, count=5, seed=1)
    assert len(competitors) == 3
    power = power_trading_site(seed=1)
    assert {"exaa.test/spot", "weather.test/vienna"} <= set(power)
    advisory = parse_html(viticulture_page(seed=1))
    assert len(advisory.find_all("tr")) == 4


# ---------------------------------------------------------------------------
# Resolution determinism, typed fetch errors and failure logging
# ---------------------------------------------------------------------------


def test_lenient_resolution_picks_the_longest_match_deterministically():
    from repro.web.fetcher import _resolve_key

    web = SimulatedWeb()
    # Several pages share the "shop.test" prefix; a wrapper naming the
    # bare site must resolve to the *most specific* page, not whichever
    # dict order happens to visit first.
    web.publish("shop.test/a", "<body><p>a</p></body>")
    web.publish("shop.test/a/deep", "<body><p>deep</p></body>")
    web.publish("shop.test/b", "<body><p>b</p></body>")
    assert web.fetch_html("shop.test") == "<body><p>deep</p></body>"
    # An exact match always wins over any longer prefix sibling.
    assert web.fetch_html("shop.test/a") == "<body><p>a</p></body>"
    # Equal-length candidates break ties lexicographically (a pure
    # function of the published set, whatever the insertion order).
    assert _resolve_key("shop.test", {"shop.test/b": 1, "shop.test/a": 2}) == (
        "shop.test/b"
    )
    assert _resolve_key("shop.test", {"shop.test/a": 2, "shop.test/b": 1}) == (
        "shop.test/b"
    )


def test_missing_pages_raise_typed_fetch_errors():
    from repro.resilience import FetchError, PermanentFetchError

    web = SimulatedWeb()
    with pytest.raises(PermanentFetchError) as caught:
        web.fetch("gone.test/page")
    assert caught.value.url == "gone.test/page"
    assert isinstance(caught.value, FetchError)
    assert isinstance(caught.value, KeyError)  # the pre-resilience contract
    assert "no page published" in str(caught.value)

    static = StaticDocumentFetcher({})
    with pytest.raises(PermanentFetchError):
        static.fetch("gone.test")


def test_fetch_log_records_every_attempt_and_error_log_the_failures():
    web = SimulatedWeb()
    web.publish("a.test", "<body><p>hi</p></body>")
    web.fetch("a.test")
    web.fetch_html("a.test")  # fetch_html is an attempt too (was unlogged)
    with pytest.raises(KeyError):
        web.fetch("missing.test")
    assert list(web.fetch_log) == ["a.test", "a.test", "missing.test"]
    assert len(web.error_log) == 1
    url, message = web.error_log[0]
    assert url == "missing.test" and "no page published" in message


def test_install_faults_adjudicates_fetches_through_the_plan():
    from repro.resilience import FaultPlan, TransientFetchError

    web = SimulatedWeb()
    web.publish("a.test", "<body><p>hi</p></body>")
    naps = []
    web.install_faults(
        FaultPlan().fail_transient("a.test", times=1).add_latency("a.test", 0.2),
        sleep=naps.append,
    )
    with pytest.raises(TransientFetchError):
        web.fetch("a.test")
    assert web.fetch("a.test").find_first("p").normalized_text() == "hi"
    assert naps == [0.2, 0.2]
    # Injected failures are logged like real ones.
    assert list(web.fetch_log) == ["a.test", "a.test"]
    assert len(web.error_log) == 1
    web.install_faults(None)  # disarm
    web.fetch("a.test")
    assert len(web.error_log) == 1
