"""The one memo primitive of the stack: an exact-key LRU with single-flight builds.

Every cross-call cache in :mod:`repro` — compiled programs and analysis reports
(:class:`repro.datalog.registry.PlanRegistry`), fixpoints
(:class:`repro.datalog.engine.SemiNaiveEngine`), truth tables and TMNF
rewrites (:mod:`repro.mdatalog.evaluator`), evaluators, parses and estimates
— is an :class:`LruMap` filled through :meth:`LruMap.get_or_build`:

* keys are compared exactly with ``==`` (Python's dict does it on every
  hit), so a colliding hash is a performance concern, never a correctness
  one: hash-colliding keys both stay resident and each hit is verified;
* recency and eviction are per entry, least-recently-used first;
* on a miss exactly one thread builds, outside the lock; concurrent callers
  of the same key wait and share its value, and a failed build wakes them
  and leaves the key retryable.

Content keys that are expensive to hash are wrapped in :class:`ContentKey`,
which hashes once.  A ``{predicate: facts}`` database is looked up under the
allocation-free :func:`database_content_hash` of the live dict and stored
under a frozen ``{predicate: frozenset}`` snapshot built only on a miss; the
comparison ``{p: frozenset} == {p: set}`` is exact, so an in-place fact swap
that keeps the hash (``hash(1) == hash(2**61)``) still misses.  A
document is immutable, so :func:`repro.datalog.tree_edb.document_key` wraps
its tau_ur encoding (a :class:`~repro.datalog.tree_edb.TreeRelations` over a
labels tuple and a parent column, compared exactly) once and keeps the key on
the document.

Every map locks internally: a :class:`repro.api.Session` is shared by the
request threads of a server front end, and an unlocked ``OrderedDict``
corrupts under concurrent mutation.  Hit/miss counters are exposed through
:meth:`LruMap.info`; a call counts a miss only if it built, so misses equal
builds.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Generic, List, NamedTuple, Optional, Tuple, TypeVar

from .ast import Database

KeyT = TypeVar("KeyT")
ResultT = TypeVar("ResultT")


class CacheInfo(NamedTuple):
    """Cache statistics, mirroring :func:`functools.lru_cache` conventions."""

    hits: int
    misses: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def database_content_hash(database: Database) -> int:
    """An order-independent content hash of ``{predicate: facts}``.

    XOR-combining per-fact hashes makes the result independent of set and
    dict iteration order without sorting or building frozensets; empty
    relations still contribute (their presence changes the fixpoint shape).
    """
    result = 0
    for predicate, facts in database.items():
        relation_hash = 0
        for fact in facts:
            relation_hash ^= hash(fact)
        result ^= hash((predicate, len(facts), relation_hash))
    return result


class ContentKey:
    """A cache key that computes its hash once and compares exactly.

    ``content`` is compared with ``==`` on every dict probe, so the hash
    only picks the slot.  ``content_hash`` defaults to ``hash(content)``;
    a database passes :func:`database_content_hash` of a live dict, and
    whoever builds its entry replaces ``content`` with an equal frozen
    snapshot before the map stores the key.
    """

    __slots__ = ("content", "_hash")

    def __init__(self, content: Any, content_hash: Optional[int] = None) -> None:
        self.content = content
        self._hash = hash(content) if content_hash is None else content_hash

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ContentKey) and self.content == other.content


class _Flight:
    """One in-progress build that callers of the same key wait on."""

    __slots__ = ("done", "value", "failed")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: object = None
        self.failed = False


class LruMap(Generic[KeyT, ResultT]):
    """A bounded least-recently-used mapping with single-flight builds.

    The only way in is :meth:`get_or_build`; :meth:`values`, :meth:`info`
    and ``len`` are read-only introspection that never touch recency.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries", "_inflight", "_lock")

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        # Each entry keeps its stored key object: a hit refreshes recency
        # through that very object, so the second probe matches by identity
        # instead of comparing a big key exactly a second time.
        self._entries: "OrderedDict[KeyT, Tuple[KeyT, ResultT]]" = OrderedDict()
        self._inflight: Dict[KeyT, _Flight] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_build(self, key: KeyT, build: Callable[[], ResultT]) -> ResultT:
        """The value under ``key``, built by ``build()`` at most once.

        A hit refreshes the entry's recency.  On a miss the first caller
        runs ``build`` outside the lock and stores its value (``None``
        included), evicting the LRU entry past capacity; callers arriving
        meanwhile wait and share that value, counted as hits.  If ``build``
        raises, the waiters wake and retry, so one of them builds next.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(entry[0])
                    self.hits += 1
                    return entry[1]
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _Flight()
                    self.misses += 1
                    break
            flight.done.wait()
            if not flight.failed:
                with self._lock:
                    self.hits += 1
                return flight.value  # type: ignore[return-value]
        try:
            value = build()
        except BaseException:
            with self._lock:
                del self._inflight[key]
            flight.failed = True
            flight.done.set()
            raise
        with self._lock:
            del self._inflight[key]
            self._entries[key] = (key, value)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        flight.value = value
        flight.done.set()
        return value

    def clear(self) -> None:
        """Drop every entry and reset the counters (builds in flight finish)."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def values(self) -> List[ResultT]:
        """A snapshot of the cached values, LRU → MRU (no recency refresh)."""
        with self._lock:
            return [value for _, value in self._entries.values()]

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self.hits, self.misses, len(self._entries), self.capacity)
