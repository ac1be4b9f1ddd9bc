"""Synthetic competitor price lists (Section 6.4): the shops a
business-intelligence price monitor watches."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

PRODUCTS = (
    "ignition coil", "brake pad set", "oil filter", "spark plug", "timing belt",
    "alternator", "radiator", "fuel pump",
)


@dataclass
class PriceEntry:
    product: str
    price: float


def competitor_prices(count: int, seed: int = 0, markup: float = 0.0) -> List[PriceEntry]:
    rng = random.Random(seed)
    entries: List[PriceEntry] = []
    for index in range(count):
        product = PRODUCTS[index % len(PRODUCTS)]
        entries.append(PriceEntry(product=product, price=round(rng.uniform(10, 300) + markup, 2)))
    return entries


def competitor_page(shop_name: str, entries: Sequence[PriceEntry]) -> str:
    rows = "".join(
        "<tr>"
        f'<td class="product">{entry.product}</td>'
        f'<td class="price">EUR {entry.price:.2f}</td>'
        "</tr>"
        for entry in entries
    )
    return (
        f"<html><body><h1>{shop_name}</h1>"
        f'<table class="pricelist">{rows}</table></body></html>'
    )


def competitor_sites(shops: int = 3, count: int = 6, seed: int = 0) -> Dict[str, str]:
    return {
        f"competitor-{index + 1}.test/prices": competitor_page(
            f"Competitor {index + 1}",
            competitor_prices(count, seed=seed + index, markup=2.5 * index),
        )
        for index in range(shops)
    }
