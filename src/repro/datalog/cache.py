"""Server-scale fixpoint caching for the semi-naive engine.

PR 1 memoised exactly one fixpoint per engine, keyed by a frozenset snapshot
of the whole database that was rebuilt on *every* ``query()`` call.  The
:mod:`repro.server.pipeline` access pattern — several hot documents queried
round-robin — thrashed that single slot, and even cache hits paid the O(|D|)
snapshot allocation.

:class:`FixpointCache` replaces it with an LRU keyed by cheap content hashes.
A source is either a ``{predicate: facts}`` database or an exact, immutable
key — a document's tree fingerprint
(:func:`repro.datalog.tree_edb.tree_fingerprint`), which determines its
whole tau_ur database.  An exact key is its own snapshot: it is hashed and
compared with ``==``, nothing is copied.  For databases:

* The per-lookup fingerprint is an allocation-free, order-independent XOR
  hash over the facts (:func:`database_content_hash`) — one O(|D|) pass with
  small constants, no frozensets built.  The frozenset snapshot is built
  once at *store* time, never per query: a hit costs the hash pass plus one
  allocation-free exact comparison, where PR 1 rebuilt (and then compared)
  a full tuple-of-frozensets key on every single ``query()`` call.
* Every hash hit is verified exactly, set by set, against the stored
  snapshot before the cached result is returned — a colliding hash can
  never smuggle in a stale fixpoint, not even for an in-place mutation of
  the previously seen database object that happens to preserve the hash
  (CPython hashes collide easily, e.g. ``hash(1) == hash(2**61)``).
* Entries are evicted least-recently-used once ``capacity`` is exceeded, so
  a working set of several hot documents all stay resident.

Thread safety (PR 5): every cache in this module locks internally, the same
way :class:`repro.datalog.registry.PlanRegistry` always has.  A
:class:`repro.api.Session` is meant to be shared by the request threads of a
server front end, and these classes are exactly the session-scale mutable
state those threads contend on — an unlocked ``OrderedDict`` corrupts under
concurrent mutation (lost entries, ``len`` drifting from reality, eviction
loops running forever).  Locks are :class:`threading.RLock` so an owning
cache can wrap a compound operation (counter bump + find) in the same lock
its :class:`VerifiedLruBuckets` core uses internally.

Hit/miss counters are exposed through :meth:`FixpointCache.info` so server
benchmarks can assert cache effectiveness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from .ast import Database

ResultT = TypeVar("ResultT")
EntryT = TypeVar("EntryT")

Snapshot = Dict[str, FrozenSet[Tuple[object, ...]]]
#: What :class:`FixpointCache` keys on: a database, or an exact key (a tuple).
Source = Union[Database, Tuple[object, ...]]
#: What an entry keeps to verify a hit: a frozen database, or the exact key.
Stored = Union[Snapshot, Tuple[object, ...]]


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


class VerifiedLruBuckets(Generic[EntryT]):
    """Fingerprint-bucketed LRU storage with caller-supplied verification.

    The machinery shared by :class:`FixpointCache` and
    :class:`repro.datalog.registry.PlanRegistry`: entries live in hash
    buckets keyed by a cheap content fingerprint, a bucket hit is
    disambiguated by an exact ``matches`` predicate (hash quality is a
    performance concern, never a correctness one), and hit/miss accounting
    lives in the owning cache.

    Recency is tracked **per entry**, not per bucket: every entry carries
    its own slot in one global LRU order, a verified ``find`` refreshes
    only the matched entry, and eviction drops the globally
    least-recently-used *entry*.  (The previous per-bucket order was unfair
    under fingerprint collisions: a hash-colliding hot entry sharing a
    bucket with a cold one could be evicted — the cold bucket-mate dragged
    it down — or wrongly kept alive by it.)

    All operations are serialised by ``self.lock``.  Owners may pass their
    own :class:`threading.RLock` so compound operations (counter bump +
    find, find-or-insert) run under one lock without deadlocking on
    re-entry; standalone instances create their own.
    """

    __slots__ = ("capacity", "lock", "_buckets", "_order", "_next_seq")

    def __init__(self, capacity: int, lock: Optional[threading.RLock] = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.lock = lock if lock is not None else threading.RLock()
        # Per-fingerprint buckets of entries, each entry under a unique
        # sequence number that doubles as its slot in the global LRU order.
        self._buckets: Dict[int, "Dict[int, EntryT]"] = {}
        self._order: "OrderedDict[int, int]" = OrderedDict()  # seq -> fingerprint
        self._next_seq = 0

    def __len__(self) -> int:
        with self.lock:
            return len(self._order)

    def find(
        self, fingerprint: int, matches: Callable[[EntryT], bool]
    ) -> Optional[EntryT]:
        """The verified entry under ``fingerprint``, refreshing its recency."""
        with self.lock:
            bucket = self._buckets.get(fingerprint)
            if bucket is None:
                return None
            for seq, entry in bucket.items():
                if matches(entry):
                    self._order.move_to_end(seq)
                    return entry
            return None

    def insert(self, fingerprint: int, entry: EntryT) -> None:
        """Insert ``entry`` as most recent, evicting the LRU entry past capacity."""
        with self.lock:
            seq = self._next_seq
            self._next_seq += 1
            self._buckets.setdefault(fingerprint, {})[seq] = entry
            self._order[seq] = fingerprint
            while len(self._order) > self.capacity:
                oldest_seq, oldest_fingerprint = next(iter(self._order.items()))
                del self._order[oldest_seq]
                oldest_bucket = self._buckets[oldest_fingerprint]
                del oldest_bucket[oldest_seq]
                if not oldest_bucket:
                    del self._buckets[oldest_fingerprint]

    def clear(self) -> None:
        with self.lock:
            self._buckets.clear()
            self._order.clear()


class _Entry(Generic[ResultT]):
    __slots__ = ("snapshot", "result")

    def __init__(self, snapshot: Stored, result: ResultT) -> None:
        self.snapshot = snapshot
        self.result = result


def _content_fingerprint(source: Source) -> int:
    if isinstance(source, tuple):
        return hash(source)
    return database_content_hash(source)


def _snapshot_matches(snapshot: Stored, source: Source) -> bool:
    if isinstance(source, tuple) or isinstance(snapshot, tuple):
        # An exact key matches only an equal exact key (a tuple is never
        # equal to a snapshot dict).
        return snapshot == source
    if len(snapshot) != len(source):
        return False
    for predicate, facts in source.items():
        stored = snapshot.get(predicate)
        if stored is None or stored != facts:
            return False
    return True


class FixpointCache(Generic[ResultT]):
    """An LRU of evaluated fixpoints, keyed by cheap content fingerprints.

    ``lookup(source)`` takes a database or an exact tuple key (see the
    module docstring) and returns ``(fingerprint, result-or-None)``; on a
    miss the caller evaluates and calls ``store`` with the same fingerprint
    and source.  Entries
    whose hashes collide share a bucket and are disambiguated by exact
    verification, so correctness never depends on hash quality.

    Thread-safe: lookups, stores and counter updates run under one internal
    lock (shared with the bucket core), so concurrent ``query()`` calls on
    one shared engine neither corrupt the LRU structure nor lose counter
    increments.  A racing lookup/evaluate/store pair is handled by
    ``store`` refreshing exact duplicates in place — both threads compute
    the same fixpoint, one entry survives.
    """

    __slots__ = ("hits", "misses", "_entries", "_lock")

    def __init__(self, capacity: int = 8) -> None:
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()
        self._entries: VerifiedLruBuckets[_Entry[ResultT]] = VerifiedLruBuckets(
            capacity, lock=self._lock
        )

    @property
    def capacity(self) -> int:
        return self._entries.capacity

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, source: Source) -> Tuple[int, Optional[ResultT]]:
        # The O(|D|) hash pass reads only the caller's source — no shared
        # state — so it runs outside the lock.
        fingerprint = _content_fingerprint(source)
        with self._lock:
            entry = self._entries.find(
                fingerprint, lambda entry: _snapshot_matches(entry.snapshot, source)
            )
            if entry is not None:
                self.hits += 1
                return fingerprint, entry.result
            self.misses += 1
            return fingerprint, None

    def store(self, fingerprint: int, source: Source, result: ResultT) -> None:
        # Exact duplicates refresh the existing entry in place: repeated
        # stores of one database (callers skipping lookup, or racing
        # lookup/store pairs) must not inflate the size and evict hot
        # documents that are genuinely distinct.
        with self._lock:
            entry = self._entries.find(
                fingerprint, lambda entry: _snapshot_matches(entry.snapshot, source)
            )
            if entry is not None:
                entry.result = result
                return
            snapshot: Stored
            if isinstance(source, tuple):
                snapshot = source
            else:
                snapshot = {
                    predicate: frozenset(facts) for predicate, facts in source.items()
                }
            self._entries.insert(fingerprint, _Entry(snapshot, result))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self.hits, self.misses, len(self._entries), self.capacity)


KeyT = TypeVar("KeyT")
_MISSING = object()


class LruMap(Generic[KeyT, ResultT]):
    """A bounded least-recently-used mapping with hit/miss counters.

    For caches whose keys are already exact content fingerprints (tree
    fingerprints, automaton signatures) — no hash-then-verify step needed.
    Shared by the monadic ground pipeline, the automata evaluator cache and
    the session memos.

    Thread-safe: ``get``/``put``/``clear``/``info`` serialise on an
    internal lock, so the recency refresh, the eviction loop and the
    counters stay consistent under concurrent access (module-level and
    session-level LruMaps serve multi-threaded server paths).
    """

    __slots__ = ("capacity", "hits", "misses", "_entries", "_lock")

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[KeyT, ResultT]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: KeyT) -> Optional[ResultT]:
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value  # type: ignore[return-value]

    def put(self, key: KeyT, value: ResultT) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def values(self) -> List[ResultT]:
        """A snapshot of the cached values, LRU → MRU (no recency refresh).

        Introspection only (e.g. ``Session.engine_info`` aggregating over
        its memoised evaluators) — iterating must not perturb eviction.
        """
        with self._lock:
            return list(self._entries.values())

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self.hits, self.misses, len(self._entries), self.capacity)


class _InFlightBuild:
    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Per-key build coordination: one builder, everyone shares the result.

    The check-then-build pattern around every memo in the stack
    (``value = memo.get(key) or build()``) is racy under concurrency: N
    threads missing together build N instances, and N-1 of them are wasted
    work holding wasted memory (for engines, that is a full compilation
    each).  ``run`` closes the race: the first thread to miss becomes the
    *builder*; every other thread parks on an event and receives the
    builder's instance, so **at most one instance per key is ever
    constructed** (the :class:`repro.api.Session` memo guarantee).

    ``lookup``/``store`` run under the coordination lock — keep them to
    memo reads/writes.  ``build`` runs outside it, so slow compilations do
    not serialise unrelated keys.  A failing build propagates to the
    builder and wakes the waiters, which retry from the top (the next one
    through becomes the new builder) — an exception never wedges a key.
    """

    __slots__ = ("_lock", "_inflight")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[object, _InFlightBuild] = {}

    def run(
        self,
        key: object,
        lookup: Callable[[], Optional[ResultT]],
        build: Callable[[], ResultT],
        store: Callable[[ResultT], None],
    ) -> ResultT:
        while True:
            with self._lock:
                value = lookup()
                if value is not None:
                    return value
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _InFlightBuild()
                    building = True
                else:
                    building = False
            if not building:
                flight.event.wait()
                if flight.error is None:
                    return flight.value  # type: ignore[return-value]
                continue  # the builder failed; loop and maybe build ourselves
            # Any failure — build() or store() — must release the key and
            # wake the waiters, or the key is wedged forever.
            try:
                value = build()
                with self._lock:
                    store(value)
            except BaseException as error:
                flight.error = error
                with self._lock:
                    self._inflight.pop(key, None)
                flight.event.set()
                raise
            flight.value = value
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            return value
