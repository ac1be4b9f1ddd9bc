"""Columnar relation storage: the one storage layer of the datalog engine.

* :class:`ColumnarRelation` — one relation as an *append-only row array*
  plus lazily built access paths.  Every distinct fact tuple is interned
  exactly once (``rows[row_id] is the fact``), so the posting set for a
  column value is a set of interned rows — operationally identical to a
  set of row ids while letting probes return matches with zero per-probe
  materialisation.  Single-position probes read one posting set;
  multi-position probes read a composite index keyed by the full tuple of
  bound positions (one hash lookup per probe).
* :class:`ColumnarWindow` — the semi-naive delta as a **row-id range
  slice** ``rows[lo:hi)`` over the append-only array.  The engine never
  copies or re-indexes a delta: it just advances per-predicate watermarks
  and slides one reusable window per relation.
* :class:`ColumnarDatabase` — the predicate-keyed collection of relations,
  plus the watermark helpers (:meth:`row_count`, :meth:`window`) the
  batched semi-naive loop of :class:`~repro.datalog.engine.SemiNaiveEngine`
  runs on.
* :class:`StorageStats` — the counters surfaced through
  ``SemiNaiveEngine.engine_info()`` / ``Session.engine_info()``: rows
  interned, delta batches and their sizes.

The compiled rule executors of :mod:`repro.datalog.plan` probe these
classes directly.

Columnar state is engine-internal scratch, like compiled plans: it is
rejected at the :mod:`repro.distrib` envelope boundary (workers rebuild
storage from the plain database payload), and fixpoint caching /
plan-registry fingerprints never see it — both key on plain databases and
program content.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .ast import Database

Fact = Tuple[object, ...]

_EMPTY: Tuple[Fact, ...] = ()


class StorageStats:
    """Monotonic counters of one engine's columnar storage activity."""

    __slots__ = (
        "rows_interned",
        "delta_batches",
        "delta_rows",
        "max_delta_batch",
    )

    def __init__(self) -> None:
        #: Distinct fact tuples appended to row arrays (EDB load + derived).
        self.rows_interned = 0
        #: Delta windows applied by the semi-naive loop.
        self.delta_batches = 0
        #: Total rows across all applied delta windows.
        self.delta_rows = 0
        #: Largest single delta window.
        self.max_delta_batch = 0


class ColumnarRelation:
    """One relation as an append-only row array plus per-column postings.

    ``rows`` is insertion-ordered and append-only: a fact's index in it is
    its row id, which is what makes range-slice deltas sound.  ``_row_of``
    interns facts (dedup + membership).  Postings and composite indexes are
    built lazily on first probe and maintained by *batch catch-up*: each
    access path records the row watermark it covers, appends touch no
    index at all, and a probe first folds in ``rows[covered:]``.  An access
    path that is never probed again (e.g. naive-round postings on a
    derived relation) therefore costs nothing as the relation grows, and a
    static relation's catch-up is a single integer comparison.
    """

    __slots__ = (
        "rows",
        "_row_of",
        "_postings",
        "_posting_covered",
        "_composites",
        "_composite_covered",
        "_stats",
    )

    def __init__(
        self, facts: Iterable[Fact] = (), stats: Optional[StorageStats] = None
    ) -> None:
        self.rows: List[Fact] = []
        self._row_of: Dict[Fact, int] = {}
        self._postings: Dict[int, Dict[object, Set[Fact]]] = {}
        self._posting_covered: Dict[int, int] = {}
        self._composites: Dict[Tuple[int, ...], Dict[Tuple[object, ...], List[Fact]]] = {}
        self._composite_covered: Dict[Tuple[int, ...], int] = {}
        self._stats = stats if stats is not None else StorageStats()
        if facts:
            # Bulk EDB load: no postings or composites exist yet, so
            # interning is the whole job — skip the per-add index upkeep.
            rows = self.rows
            row_of = self._row_of
            for f in facts:
                if f not in row_of:
                    row_of[f] = len(rows)
                    rows.append(f)
            self._stats.rows_interned += len(rows)

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._row_of

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    # -- updates -------------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        """Intern ``fact``; returns True iff it was new.

        Appends never touch an index: every access path catches up to the
        current watermark on its next probe (batch maintenance)."""
        row_of = self._row_of
        if fact in row_of:
            return False
        row_of[fact] = len(self.rows)
        self.rows.append(fact)
        self._stats.rows_interned += 1
        return True

    def add_batch(self, new_facts: Iterable[Fact]) -> int:
        """Bulk-append facts; returns how many were actually new.

        Interning dedups within the batch and against the relation; index
        upkeep is deferred to the next probe of each access path, so the
        batch itself is one pure interning pass.
        """
        rows = self.rows
        row_of = self._row_of
        before = len(rows)
        for fact in new_facts:
            if fact not in row_of:
                row_of[fact] = len(rows)
                rows.append(fact)
        count = len(rows) - before
        self._stats.rows_interned += count
        return count

    # -- probing -------------------------------------------------------------
    def ensure_column(self, position: int) -> Dict[object, Set[Fact]]:
        """The posting sets for one column, caught up to the watermark.

        Materialised on first use; later calls fold ``rows[covered:]`` into
        the buckets in one batch (a no-op comparison when nothing new)."""
        postings = self._postings.get(position)
        if postings is None:
            postings = self._postings[position] = {}
            covered = 0
        else:
            covered = self._posting_covered[position]
        rows = self.rows
        n = len(rows)
        if covered < n:
            for i in range(covered, n):
                fact = rows[i]
                if position < len(fact):
                    bucket = postings.get(fact[position])
                    if bucket is None:
                        postings[fact[position]] = {fact}
                    else:
                        bucket.add(fact)
            self._posting_covered[position] = n
        return postings

    def _ensure_composite(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[object, ...], List[Fact]]:
        buckets = self._composites.get(positions)
        if buckets is None:
            buckets = self._composites[positions] = {}
            covered = 0
        else:
            covered = self._composite_covered[positions]
        rows = self.rows
        n = len(rows)
        if covered < n:
            last = positions[-1]
            for i in range(covered, n):
                fact = rows[i]
                if last < len(fact):
                    key = tuple(fact[p] for p in positions)
                    matches = buckets.get(key)
                    if matches is None:
                        buckets[key] = [fact]
                    else:
                        matches.append(fact)
            self._composite_covered[positions] = n
        return buckets

    def ensure_index(self, positions: Tuple[int, ...]) -> None:
        """Eagerly materialise the access path a probe on ``positions`` uses.

        Called by the engine for the static index advice of
        :mod:`repro.analysis.cost` — single positions mean one posting
        column, multi-position specs a composite index.
        """
        if len(positions) == 1:
            self.ensure_column(positions[0])
        else:
            self._ensure_composite(positions)

    def probe1(self, position: int, value: object) -> Iterable[Fact]:
        """Rows whose column ``position`` equals ``value`` (the hot path).

        Returns the posting set itself — zero per-probe materialisation.
        Callers must not mutate the result.
        """
        rows = self.rows
        postings = self._postings.get(position)
        if postings is None:
            if not rows:
                # Also keeps the shared _EMPTY_COLUMNAR sentinel immutable.
                return _EMPTY
            postings = self.ensure_column(position)
        elif self._posting_covered[position] != len(rows):
            self.ensure_column(position)
        return postings.get(value, _EMPTY)

    def probe(
        self, positions: Tuple[int, ...], key: Tuple[object, ...]
    ) -> Iterable[Fact]:
        """Rows matching ``key`` on ``positions`` (ascending).

        Single positions read one posting set; multiple positions read the
        composite index over exactly those positions.
        """
        if not positions:
            return self.rows
        if len(positions) == 1:
            return self.probe1(positions[0], key[0])
        if not self.rows:
            return _EMPTY
        return self._ensure_composite(positions).get(key, _EMPTY)

    def index_count(self) -> int:
        """Materialised access paths (posting columns plus composites)."""
        return len(self._postings) + len(self._composites)


class ColumnarWindow:
    """A row-id range ``[lo, hi)`` over one relation — the semi-naive delta.

    The engine keeps one window per derived predicate and slides ``lo`` /
    ``hi`` along the append-only row array as watermarks advance; applying
    a delta never copies or re-indexes facts.  A window doubles as the
    delta *database* the rule plans consult: :meth:`lookup` answers for its
    own predicate (anything else is empty by construction — a plan's delta
    step only ever reads the delta predicate).
    """

    __slots__ = ("predicate", "relation", "lo", "hi")

    def __init__(
        self, predicate: str, relation: ColumnarRelation, lo: int = 0, hi: int = 0
    ) -> None:
        self.predicate = predicate
        self.relation = relation
        self.lo = lo
        self.hi = hi

    def lookup(self, predicate: str) -> "ColumnarWindow | ColumnarRelation":
        return self if predicate == self.predicate else _EMPTY_COLUMNAR

    def __len__(self) -> int:
        return self.hi - self.lo

    def __bool__(self) -> bool:
        return self.hi > self.lo

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.relation.rows[self.lo : self.hi])

    def probe1(self, position: int, value: object) -> List[Fact]:
        """Range-restricted probe: scan the slice (deltas are small)."""
        return [
            fact
            for fact in self.relation.rows[self.lo : self.hi]
            if position < len(fact) and fact[position] == value
        ]

    def probe(
        self, positions: Tuple[int, ...], key: Tuple[object, ...]
    ) -> Sequence[Fact]:
        rows = self.relation.rows[self.lo : self.hi]
        if not positions:
            return rows
        last = positions[-1]
        return [
            fact
            for fact in rows
            if last < len(fact)
            and all(fact[p] == v for p, v in zip(positions, key))
        ]


class ColumnarDatabase:
    """Predicate-keyed :class:`ColumnarRelation` store.

    Besides the relation accessors it carries the watermark helpers of the
    batched semi-naive loop.  All relations share the database's
    :class:`StorageStats`.
    """

    __slots__ = ("relations", "stats")

    def __init__(
        self,
        database: Optional[Database] = None,
        stats: Optional[StorageStats] = None,
    ) -> None:
        self.relations: Dict[str, ColumnarRelation] = {}
        self.stats = stats if stats is not None else StorageStats()
        if database:
            for predicate, facts in database.items():
                self.relations[predicate] = ColumnarRelation(facts, self.stats)

    # -- access --------------------------------------------------------------
    def relation(self, predicate: str) -> ColumnarRelation:
        """The (possibly empty, lazily created) relation for ``predicate``."""
        rel = self.relations.get(predicate)
        if rel is None:
            rel = self.relations[predicate] = ColumnarRelation((), self.stats)
        return rel

    def lookup(self, predicate: str) -> ColumnarRelation:
        """Read-only access: missing predicates map to a shared empty
        relation without creating an entry."""
        rel = self.relations.get(predicate)
        return rel if rel is not None else _EMPTY_COLUMNAR

    def contains_fact(self, predicate: str, fact: Fact) -> bool:
        rel = self.relations.get(predicate)
        return rel is not None and fact in rel

    def __contains__(self, predicate: str) -> bool:
        return predicate in self.relations

    # -- updates -------------------------------------------------------------
    def add_fact(self, predicate: str, fact: Fact) -> bool:
        return self.relation(predicate).add(fact)

    def add_batch(self, predicate: str, facts: Iterable[Fact]) -> int:
        return self.relation(predicate).add_batch(facts)

    def prune_empty(self, predicates: Iterable[str]) -> None:
        """Drop still-empty relations the engine materialised as scratch.

        The sweep loop binds head relations and delta windows eagerly; any
        that never received a row must not surface as a spurious empty
        entry in :meth:`to_database`."""
        for predicate in predicates:
            rel = self.relations.get(predicate)
            if rel is not None and not rel.rows:
                del self.relations[predicate]

    # -- watermarks (batched semi-naive loop) --------------------------------
    def row_count(self, predicate: str) -> int:
        """The current high watermark of ``predicate``'s row array."""
        rel = self.relations.get(predicate)
        return len(rel.rows) if rel is not None else 0

    def window(self, predicate: str, lo: int = 0, hi: int = 0) -> ColumnarWindow:
        """A (reusable) delta window over ``predicate``'s row array."""
        return ColumnarWindow(predicate, self.relation(predicate), lo, hi)

    # -- export --------------------------------------------------------------
    def to_database(self) -> Database:
        """A plain ``{predicate: set of facts}`` snapshot.

        This is the only shape that escapes the engine — fixpoint results,
        cache entries and distrib payloads all carry plain databases.
        """
        return {predicate: set(rel.rows) for predicate, rel in self.relations.items()}


#: Shared sentinel for :meth:`ColumnarDatabase.lookup` misses; never mutated
#: (probes on an empty relation return before materialising postings).
_EMPTY_COLUMNAR = ColumnarRelation()
