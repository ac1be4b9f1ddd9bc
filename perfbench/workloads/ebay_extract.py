"""``ebay_extract``: the Figure 5 wrapper over eBay search listings.

Each request is one listing of 1-3 result pages, extracted sequentially
through ``Session.extract_many(figure5_program(), urls=..., fetcher=web)``.
Records per page are skewed: most pages carry 5-15 items (weighted towards
the small end), and exactly 2 listings in every block of 25 carry one page
of 30-40 items.  Stratifying the large pages instead of drawing them keeps
their share identical across seeds, so the tail that sets
``latency_p95_ms`` does not swing with the seed.  Every listing has its own
URLs and item data; nothing is cached between requests.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from perfbench.layers import session_counters

from repro import Session
from repro.elog import figure5_program
from repro.web import SimulatedWeb
from repro.web.sites.ebay import generate_items, render_page

LISTINGS = 700
BLOCK = 25
LARGE_PER_BLOCK = 2
PAGE_WEIGHTS = ((1, 0.8), (2, 0.15), (3, 0.05))
PATTERNS = ("record", "itemdes", "price", "bids")


def _small_page_items(rng: random.Random) -> int:
    return 5 + int(11 * rng.random() ** 3)


def generate(seed: int) -> Tuple[Dict[str, str], List[List[Tuple[str, int]]]]:
    """``({url: html}, listings)``; a listing is ``[(url, item count), ...]``."""
    rng = random.Random(f"ebay_extract/{seed}")
    large: set = set()
    for block_start in range(0, LISTINGS, BLOCK):
        large.update(block_start + offset for offset in rng.sample(range(BLOCK), LARGE_PER_BLOCK))
    counts, weights = zip(*PAGE_WEIGHTS)
    pages: Dict[str, str] = {}
    listings: List[List[Tuple[str, int]]] = []
    for listing in range(LISTINGS):
        page_count = rng.choices(counts, weights)[0]
        sizes = [_small_page_items(rng) for _ in range(page_count)]
        if listing in large:
            sizes[rng.randrange(page_count)] = rng.randint(30, 40)
        base = f"www.ebay.com/listing/{seed}-{listing}"
        urls = [base] + [f"{base}/page/{number}" for number in range(2, page_count + 1)]
        for position, (url, size) in enumerate(zip(urls, sizes)):
            items = generate_items(size, seed=rng.randrange(2 ** 31))
            following = urls[position + 1] if position + 1 < page_count else None
            pages[url] = render_page(items, next_page_url=following)
        listings.append(list(zip(urls, sizes)))
    return pages, listings


class Workload:
    name = "ebay_extract"

    def __init__(self, seed: int) -> None:
        self.pages, self.listings = generate(seed)
        sizes = [size for listing in self.listings for _, size in listing]
        self.summary = {
            "listings": len(self.listings),
            "pages": len(sizes),
            "records": sum(sizes),
            "pages_with_30_plus_records": sum(1 for size in sizes if size >= 30),
        }
        self.problems: List[str] = []

    def setup(self) -> None:
        self.web = SimulatedWeb()
        self.web.publish_many(self.pages)
        self.session = Session()
        self.program = figure5_program()
        # Compile the wrapper (parse, static analysis, interpreter) now, so
        # requests measure extraction only.
        self.session.wrapper(self.program, self.web)

    def _listing(self, index: int) -> List[Tuple[str, int]]:
        return self.listings[index % len(self.listings)]

    def between(self, index: int) -> None:
        pass

    def request(self, index: int):
        urls = [url for url, _ in self._listing(index)]
        return self.session.extract_many(self.program, urls=urls, fetcher=self.web)

    def check(self, index: int, output) -> None:
        listing = self._listing(index)
        if len(output) != len(listing):
            self.problems.append(f"listing {index}: {len(output)} results for {len(listing)} pages")
            return
        for result, (url, size) in zip(output, listing):
            for pattern in PATTERNS:
                found = result.count(pattern)
                if found != size:
                    self.problems.append(f"{url}: {found} {pattern} for {size} items")

    def final_checks(self) -> None:
        pass

    def counters(self) -> Dict[str, float]:
        counts = session_counters(self.session)
        counts["web.fetch.failed"] = len(self.web.error_log)
        return counts
