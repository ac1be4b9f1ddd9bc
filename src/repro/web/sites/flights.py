"""Synthetic airport arrival/departure boards (Section 6.2).

Flight timetables are "either scattered into different airport information
systems or into the portals of individual airlines"; the generator produces
one board per airport with flight number, route, scheduled time and status.
Statuses can be advanced deterministically to exercise change detection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

STATUSES = ("scheduled", "boarding", "departed", "delayed", "cancelled", "landed")
CITIES = ("Vienna", "Paris", "London", "Frankfurt", "Rome", "Madrid", "Zurich", "Prague")
AIRLINES = ("OS", "AF", "BA", "LH", "AZ", "IB", "LX", "OK")


@dataclass
class Flight:
    number: str
    origin: str
    destination: str
    scheduled: str
    status: str

    def with_status(self, status: str) -> "Flight":
        return replace(self, status=status)


def generate_flights(count: int, seed: int = 0, airport: str = "Vienna") -> List[Flight]:
    rng = random.Random(seed)
    flights: List[Flight] = []
    for index in range(count):
        airline = rng.choice(AIRLINES)
        destination = rng.choice([city for city in CITIES if city != airport])
        flights.append(
            Flight(
                number=f"{airline} {rng.randint(100, 999)}",
                origin=airport,
                destination=destination,
                scheduled=f"{rng.randint(6, 22):02d}:{rng.choice(('00', '15', '30', '45'))}",
                status=rng.choice(("scheduled", "scheduled", "boarding", "delayed")),
            )
        )
    return flights


def departures_page(airport: str, flights: Sequence[Flight]) -> str:
    rows = "".join(
        "<tr>"
        f'<td class="flight">{flight.number}</td>'
        f'<td class="dest">{flight.destination}</td>'
        f'<td class="time">{flight.scheduled}</td>'
        f'<td class="status">{flight.status}</td>'
        "</tr>"
        for flight in flights
    )
    return (
        f"<html><body><h1>{airport} departures</h1>"
        '<table class="departures">'
        "<tr><th>flight</th><th>to</th><th>time</th><th>status</th></tr>"
        f"{rows}</table></body></html>"
    )


def advance_statuses(flights: Sequence[Flight], changes: Dict[str, str]) -> List[Flight]:
    """Return a new flight list with the given flight numbers re-statused."""
    return [
        flight.with_status(changes[flight.number]) if flight.number in changes else flight
        for flight in flights
    ]
