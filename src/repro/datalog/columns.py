"""Columnar relation storage: the one storage layer of the datalog engine.

* :class:`ColumnarRelation` — one relation as an *append-only row array*
  plus lazily built access paths of one kind, :meth:`ColumnarRelation.index`.
  Every distinct fact tuple is stored exactly once (``rows[row_id] is
  the fact``).  An index is identified by its bound positions *and* an
  arity: it maps the bound value (one position) or the tuple of bound
  values (several positions) to the list of interned rows of exactly that
  arity, so a probe is one ``dict.get`` whose result needs no arity check
  and no per-probe materialisation.
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

The compiled rule executors of :mod:`repro.datalog.plan` read these
classes directly: once per call they capture ``index(...).get`` for each
probed step, then probe with plain ``dict.get`` calls.

Relations and their indexes are engine-internal scratch, like compiled
plans.  What outlives an evaluation is only the finished rows, copied out
as tuples (:meth:`ColumnarDatabase.row_arrays`), which a
:class:`~repro.datalog.engine.EvaluationResult` holds and the fixpoint
cache keeps; the row lists, indexes and membership sets die with the
database.
"""

from __future__ import annotations

from operator import itemgetter
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .ast import Database

Fact = Tuple[object, ...]

#: What :meth:`ColumnarRelation.index` answers for an empty relation: a
#: read-only empty mapping, so no caller can fill it in.
_NO_ROWS: Mapping[object, List[Fact]] = MappingProxyType({})


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
    """One relation as an append-only row array plus its indexes.

    ``rows`` is append-only: a fact's index in it is its row id, which is
    what makes range-slice deltas sound.  ``_seen`` is the set of the rows
    (dedup + membership); it is built on first need, so a relation that is
    only read — an EDB relation without negation on it — never has one.
    Indexes are built lazily on first use and maintained by *batch
    catch-up*: each one records the row watermark it covers, appends touch
    no index at all, and :meth:`index` first folds in ``rows[covered:]``.
    An index that is never asked for again (e.g. a naive-round index on a
    derived relation) therefore costs nothing as the relation grows, and a
    static relation's catch-up is a single integer comparison.

    ``distinct=True`` adopts ``facts`` — a list the caller knows to be
    duplicate-free and hands over — as the row array itself, with no
    dedup pass (the tau_ur relations of
    :class:`~repro.datalog.tree_edb.TreeRelations`).  Otherwise the
    constructor keeps the first occurrence of each fact, in input order.
    """

    __slots__ = ("rows", "_seen", "_indexes", "_stats")

    def __init__(
        self,
        facts: Iterable[Fact] = (),
        stats: Optional[StorageStats] = None,
        *,
        distinct: bool = False,
    ) -> None:
        self.rows: List[Fact] = (
            facts if distinct else list(dict.fromkeys(facts))  # type: ignore[assignment]
        )
        self._seen: Optional[Set[Fact]] = None
        #: ``(positions, arity)`` -> (buckets, row watermark they cover).
        self._indexes: Dict[
            Tuple[Tuple[int, ...], int], Tuple[Dict[object, List[Fact]], int]
        ] = {}
        self._stats = stats if stats is not None else StorageStats()
        self._stats.rows_interned += len(self.rows)

    def _members(self) -> Set[Fact]:
        """The set of the rows, built on first need."""
        seen = self._seen
        if seen is None:
            seen = self._seen = set(self.rows)
        return seen

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._members()

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    # -- updates -------------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        """Intern ``fact``; returns True iff it was new.

        Appends never touch an index: every index catches up to the
        current watermark the next time it is asked for (batch
        maintenance)."""
        seen = self._members()
        if fact in seen:
            return False
        seen.add(fact)
        self.rows.append(fact)
        self._stats.rows_interned += 1
        return True

    def add_batch(self, new_facts: Iterable[Fact]) -> int:
        """Bulk-append facts; returns how many were actually new.

        Dedups within the batch and against the relation through the
        membership set; new facts append in batch order.  (Deduplicating
        with C-level set operations instead — ``set(batch) - seen`` —
        measured slower on the same-generation and descendant fixpoints.)
        Index upkeep is deferred to the next :meth:`index` call.
        """
        seen = self._members()
        rows = self.rows
        before = len(rows)
        add = seen.add
        append = rows.append
        for fact in new_facts:
            if fact not in seen:
                add(fact)
                append(fact)
        count = len(rows) - before
        self._stats.rows_interned += count
        return count

    # -- probing -------------------------------------------------------------
    def index(
        self, positions: Tuple[int, ...], arity: int
    ) -> Mapping[object, List[Fact]]:
        """The access path on ``positions`` (non-empty) over rows of ``arity``.

        Maps the bound value (one position) or the tuple of bound values
        (several positions) to the list of rows of exactly ``arity`` that
        carry it, caught up to the current watermark.  Materialised on
        first call; later calls fold ``rows[covered:]`` into the buckets in
        one batch (one comparison when nothing is new).  Each row is
        interned once, so a bucket never holds a duplicate.  Callers must
        not mutate the result.  An empty relation answers with a shared
        empty mapping and materialises nothing, which also keeps the
        shared ``_EMPTY_COLUMNAR`` sentinel unmutated.
        """
        rows = self.rows
        if not rows:
            return _NO_ROWS
        path = (positions, arity)
        built = self._indexes.get(path)
        if built is None:
            buckets: Dict[object, List[Fact]] = {}
            covered = 0
        else:
            buckets, covered = built
        n = len(rows)
        if covered < n:
            key_of = itemgetter(*positions)
            get = buckets.get
            for fact in rows[covered:n]:
                if len(fact) == arity:
                    key = key_of(fact)
                    bucket = get(key)
                    if bucket is None:
                        buckets[key] = [fact]
                    else:
                        bucket.append(fact)
            self._indexes[path] = (buckets, n)
        return buckets


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
        database: Optional[Mapping[str, Iterable[Fact]]] = None,
        stats: Optional[StorageStats] = None,
        *,
        distinct: bool = False,
    ) -> None:
        self.relations: Dict[str, ColumnarRelation] = {}
        self.stats = stats if stats is not None else StorageStats()
        if database:
            for predicate, facts in database.items():
                self.relations[predicate] = ColumnarRelation(
                    facts, self.stats, distinct=distinct
                )

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

    def add_batch(self, predicate: str, facts: Iterable[Fact]) -> int:
        return self.relation(predicate).add_batch(facts)

    def prune_empty(self, predicates: Iterable[str]) -> None:
        """Drop still-empty relations the engine materialised as scratch.

        The sweep loop binds head relations and delta windows eagerly; any
        that never received a row must not surface as a spurious empty
        entry in :meth:`row_arrays` or :meth:`to_database`."""
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
    def row_arrays(self) -> Dict[str, Tuple[Fact, ...]]:
        """``{predicate: rows}`` — the finished relations as tuples, without
        their indexes or membership sets (what an
        :class:`~repro.datalog.engine.EvaluationResult` holds).

        The copy is the boundary between scratch and result: the cyclic
        collector stops tracking a tuple of int tuples within its first
        two passes (one for the rows, one for the tuple), while a live row
        list stays tracked, and every full collection walks each of its
        rows for as long as the fixpoint cache keeps it.
        A tuple also makes a cached fixpoint read-only.  Copying costs
        under 1 ms per 70 k rows, a small share of the tens of
        milliseconds a fixpoint of that size takes to derive."""
        return {predicate: tuple(rel.rows) for predicate, rel in self.relations.items()}

    def to_database(self) -> Database:
        """A plain ``{predicate: set of facts}`` copy (``SemiNaiveEngine.
        evaluate``'s return shape for dict callers)."""
        return {predicate: set(rel.rows) for predicate, rel in self.relations.items()}


#: Shared sentinel for :meth:`ColumnarDatabase.lookup` misses; never mutated
#: (:meth:`ColumnarRelation.index` on an empty relation builds nothing).
_EMPTY_COLUMNAR = ColumnarRelation()
