"""Synthetic radio playlist, music chart and lyrics sites (Section 6.1).

The "Now Playing" application integrates 14 sites in three groups: radio
channels (currently playing song), charts (rankings), and a lyrics server.
These generators produce structurally distinct pages per group, keyed by a
shared song universe so the integration step has real joins to perform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

SONGS: Tuple[Tuple[str, str], ...] = (
    ("Vienna Calling", "The Falcons"),
    ("Datalog Nights", "Query Queens"),
    ("Monadic Love", "Second Order"),
    ("Tree of Hearts", "The Leaves"),
    ("Infinite Scroll", "Pipe Dreams"),
    ("Wrapper's Delight", "The Extractors"),
    ("Blue Danube Remix", "Schema Less"),
    ("Crawling Back to You", "Deep Links"),
)


@dataclass
class Station:
    name: str
    url: str
    current_song: str
    current_artist: str
    stream_url: str


def stations(count: int = 6, seed: int = 0) -> List[Station]:
    rng = random.Random(seed)
    result: List[Station] = []
    for index in range(count):
        song, artist = SONGS[rng.randrange(len(SONGS))]
        name = f"Radio {chr(ord('A') + index)}"
        result.append(
            Station(
                name=name,
                url=f"radio-{chr(ord('a') + index)}.test/nowplaying",
                current_song=song,
                current_artist=artist,
                stream_url=f"stream://radio-{chr(ord('a') + index)}",
            )
        )
    return result


def radio_page(station: Station) -> str:
    return (
        "<html><body>"
        f"<h1>{station.name}</h1>"
        '<div class="nowplaying">'
        f'<span class="song">{station.current_song}</span>'
        f'<span class="artist">{station.current_artist}</span>'
        f'<a class="stream" href="{station.stream_url}">listen live</a>'
        "</div>"
        '<div class="schedule"><p>news at noon</p></div>'
        "</body></html>"
    )


def chart_page(name: str, seed: int = 0, size: int = 8) -> str:
    rng = random.Random(seed)
    order = list(SONGS)
    rng.shuffle(order)
    rows = "".join(
        "<tr>"
        f'<td class="pos">{position + 1}</td>'
        f'<td class="song">{song}</td>'
        f'<td class="artist">{artist}</td>'
        "</tr>"
        for position, (song, artist) in enumerate(order[:size])
    )
    return (
        f"<html><body><h1>{name}</h1>"
        f'<table class="chart"><tr><th>#</th><th>song</th><th>artist</th></tr>{rows}</table>'
        "</body></html>"
    )


def lyrics_page(song: str, artist: str) -> str:
    lines = "".join(
        f"<p class='line'>{song.lower()} line {i + 1}</p>" for i in range(4)
    )
    return (
        "<html><body>"
        f'<div class="lyrics"><h2 class="song">{song}</h2>'
        f'<h3 class="artist">{artist}</h3>{lines}</div>'
        "</body></html>"
    )


def now_playing_site(
    station_count: int = 6, chart_count: int = 5, seed: int = 0
) -> Dict[str, str]:
    """The full 14-site universe of the Now Playing application
    (6 radio stations + 5 charts + 1 lyrics page per song)."""
    site: Dict[str, str] = {}
    for station in stations(station_count, seed=seed):
        site[station.url] = radio_page(station)
    for index in range(chart_count):
        site[f"charts-{index + 1}.test/top"] = chart_page(
            f"Chart {index + 1}", seed=seed + index
        )
    for song, artist in SONGS:
        slug = song.lower().replace(" ", "-")
        site[f"lyrics.test/{slug}"] = lyrics_page(song, artist)
    return site
