"""Site generators only the tests publish: the Section 6 pages no example
or benchmark serves (an airport board site, the power-trading sources, the
viticulture advisory) and a radio station switching songs."""

from __future__ import annotations

import random
import re
from typing import Dict

from repro.web.sites.flights import departures_page, generate_flights

REGIONS = ("Wachau", "Burgenland", "Styria", "Vienna")
RIVERS = ("Danube", "Inn", "Mur", "Drau")


def airport_site(airport: str = "Vienna", count: int = 10, seed: int = 0) -> Dict[str, str]:
    flights = generate_flights(count, seed=seed, airport=airport)
    return {f"{airport.lower()}-airport.test/departures": departures_page(airport, flights)}


def spot_market_page(exchange: str = "EXAA", hours: int = 24, seed: int = 0) -> str:
    rng = random.Random(seed)
    rows = "".join(
        "<tr>"
        f'<td class="hour">{hour:02d}:00</td>'
        f'<td class="price">{rng.uniform(18, 95):.2f}</td>'
        "</tr>"
        for hour in range(hours)
    )
    return (
        f"<html><body><h1>{exchange} spot prices (EUR/MWh)</h1>"
        f'<table class="spot">{rows}</table></body></html>'
    )


def weather_page(region: str = "Vienna", seed: int = 0) -> str:
    rng = random.Random(seed)
    days = "".join(
        '<div class="day">'
        f'<span class="date">2004-06-{14 + offset}</span>'
        f'<span class="temp">{rng.randint(12, 34)} C</span>'
        f'<span class="rain">{rng.randint(0, 20)} mm</span>'
        "</div>"
        for offset in range(5)
    )
    return f"<html><body><h1>Weather {region}</h1><div class='forecast'>{days}</div></body></html>"


def water_level_page(seed: int = 0) -> str:
    rng = random.Random(seed)
    rows = "".join(
        "<tr>"
        f'<td class="river">{river}</td>'
        f'<td class="level">{rng.randint(150, 620)} cm</td>'
        "</tr>"
        for river in RIVERS
    )
    return (
        "<html><body><h1>Water levels</h1>"
        f'<table class="levels">{rows}</table></body></html>'
    )


def power_trading_site(seed: int = 0) -> Dict[str, str]:
    return {
        "exaa.test/spot": spot_market_page("EXAA", seed=seed),
        "eex.test/spot": spot_market_page("EEX", seed=seed + 1),
        "weather.test/vienna": weather_page("Vienna", seed=seed),
        "hydro.test/levels": water_level_page(seed=seed),
    }


def viticulture_page(seed: int = 0) -> str:
    rng = random.Random(seed)
    rows = "".join(
        "<tr>"
        f'<td class="region">{region}</td>'
        f'<td class="pest">powdery mildew</td>'
        f'<td class="recommendation">spray within {rng.randint(2, 9)} days</td>'
        "</tr>"
        for region in REGIONS
    )
    return (
        "<html><body><h1>Viticulture advisory</h1>"
        f'<table class="advisory">{rows}</table></body></html>'
    )


def retune_station(html: str, new_song: str, new_artist: str) -> str:
    """Simulate the radio station switching to another song."""
    html = re.sub(
        r'<span class="song">[^<]*</span>', f'<span class="song">{new_song}</span>', html
    )
    return re.sub(
        r'<span class="artist">[^<]*</span>',
        f'<span class="artist">{new_artist}</span>',
        html,
    )
