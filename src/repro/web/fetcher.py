"""The simulated Web: offline document acquisition.

The paper's applications wrap live Web sites; in this offline reproduction a
:class:`SimulatedWeb` holds a set of URL -> HTML mappings (produced by the
site generators in :mod:`repro.web.sites`) and serves them as pages (the text
as validator, the document parsed on demand) to the Extractor and the
Transformation Server.  Pages can be *mutated* between
fetches, which is how source monitoring / change detection (Section 5, the
flight application of Section 6.2) is exercised — and *faults* can be
installed (:meth:`SimulatedWeb.install_faults`) so the resilience layer's
failure modes are exercised against the same pages.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from ..elog.extractor import Fetcher, Page
from ..html import parse_html
from ..resilience.errors import PermanentFetchError
from ..tree.document import Document

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultPlan


def _normalise(url: str) -> str:
    url = url.strip().lower()
    for prefix in ("https://", "http://"):
        if url.startswith(prefix):
            url = url[len(prefix):]
    return url.rstrip("/")


def _resolve_key(key: str, published: Dict[str, object]) -> Optional[str]:
    """The published key serving ``key``, deterministically.

    Exact match wins outright.  Lenient prefix matching — wrappers may name
    a site by its entry-URL prefix — used to return whichever candidate
    dict iteration happened to visit first; with several prefix-matching
    pages that made the served page an accident of insertion order.  Now
    the *longest* matching candidate wins (the most specific page), with
    lexicographic order breaking exact-length ties, so resolution is a pure
    function of the published set.
    """
    if key in published:
        return key
    best: Optional[str] = None
    for candidate in published:
        if candidate.startswith(key) or key.startswith(candidate):
            if best is None or (len(candidate), candidate) > (len(best), best):
                best = candidate
    return best


#: How many URLs :attr:`SimulatedWeb.fetch_log` keeps: a long-running
#: server must not grow it without bound.
FETCH_LOG_SIZE = 1024


class SimulatedWeb(Fetcher):
    """An in-memory Web of HTML pages addressed by URL.

    A fetched :class:`~repro.elog.extractor.Page`'s validator is the page
    text itself, compared with ``==``: exact, with no hash to collide, and
    O(1) for an unchanged page, which is the very ``str`` object stored at
    publication.  The page parses only when its document is first read.

    ``fetch_log`` records the last :data:`FETCH_LOG_SIZE` fetch *attempts*
    (``fetch_page`` and ``fetch_html`` alike — politeness and dedup
    accounting must see both entry points, and a failed request still hit
    the server);
    ``error_log`` additionally records ``(url, error message)`` per failed
    attempt.  :meth:`install_faults` arms a seeded
    :class:`~repro.resilience.faults.FaultPlan` so site-level tests inject
    failures without wrapping the fetcher.
    """

    def __init__(self) -> None:
        self._pages: Dict[str, str] = {}
        self.fetch_log: Deque[str] = deque(maxlen=FETCH_LOG_SIZE)
        self.error_log: List[Tuple[str, str]] = []
        self._fault_plan: Optional["FaultPlan"] = None
        self._fault_sleep: Callable[[float], None] = time.sleep

    # -- publishing -------------------------------------------------------
    def publish(self, url: str, html: str) -> None:
        """Publish (or replace) the page at ``url``."""
        self._pages[_normalise(url)] = html

    def publish_many(self, pages: Dict[str, str]) -> None:
        for url, html in pages.items():
            self.publish(url, html)

    def update(self, url: str, transform: Callable[[str], str]) -> None:
        """Mutate an already published page (simulates a site change)."""
        key = _normalise(url)
        self._pages[key] = transform(self._pages[key])

    def remove(self, url: str) -> None:
        self._pages.pop(_normalise(url), None)

    # -- fault injection --------------------------------------------------
    def install_faults(
        self,
        plan: Optional["FaultPlan"],
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """Arm (or with ``None`` disarm) a fault plan on this web.

        Every subsequent fetch is adjudicated by the plan before the page
        is served: injected latency sleeps (through ``sleep``, injectable
        so tests burn no wall-clock), injected errors raise.  Fetch
        counting, logging and the plan's own tallies all still apply.
        """
        self._fault_plan = plan
        self._fault_sleep = sleep

    def _adjudicate(self, url: str) -> None:
        if self._fault_plan is None:
            return
        decision = self._fault_plan.decide(url)
        if decision.delay_s:
            self._fault_sleep(decision.delay_s)
        if decision.error is not None:
            raise decision.error

    # -- fetching -----------------------------------------------------------
    def fetch_page(self, url: str) -> Page:
        html = self.fetch_html(url)
        return Page(url, html, parse=lambda: parse_html(html, url=url))

    def fetch_html(self, url: str) -> str:
        self.fetch_log.append(url)
        try:
            self._adjudicate(url)
            key = _resolve_key(_normalise(url), self._pages)
            if key is None:
                raise PermanentFetchError(f"no page published at {url!r}", url=url)
        except Exception as error:
            self.error_log.append((url, str(error)))
            raise
        return self._pages[key]

    def has(self, url: str) -> bool:
        return _resolve_key(_normalise(url), self._pages) is not None

    def urls(self) -> List[str]:
        return sorted(self._pages)

    def __len__(self) -> int:
        return len(self._pages)

    # -- helpers ---------------------------------------------------------------
    _normalise = staticmethod(_normalise)

    def _resolve(self, url: str) -> Optional[str]:
        return _resolve_key(_normalise(url), self._pages)


class StaticDocumentFetcher(Fetcher):
    """A fetcher over already-parsed documents (used in unit tests).

    Its pages carry no validator: like an HTTP response without one, they
    can never be revalidated, so a consumer re-reads them every time.
    """

    def __init__(self, documents: Dict[str, Document]) -> None:
        self._documents = {_normalise(url): doc for url, doc in documents.items()}

    def fetch_page(self, url: str) -> Page:
        key = _resolve_key(_normalise(url), self._documents)
        if key is None:
            raise PermanentFetchError(f"no document registered for {url!r}", url=url)
        return Page(url, document=self._documents[key])
