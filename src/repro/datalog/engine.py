"""Generic bottom-up datalog evaluation (semi-naive, stratified negation).

This is the reference engine the theory packages compare against.  It works
for arbitrary (function-free, safe) datalog programs over an extensional
database given as ``{predicate: set of tuples}``, or over a
:class:`~repro.tree.document.Document`, whose extensional database is its
tau_ur structure (Section 2.2).

Evaluation has exactly one path (see ROADMAP.md and docs/ENGINE.md for the
full picture):

1. **Plan compilation** (:mod:`repro.datalog.plan`) — every rule is compiled
   once into a :class:`~repro.datalog.plan.RulePlan`: a variable→slot
   layout, precompiled filters and head projection, and a per-(delta-
   position, size-bucket) memo of greedy join orders, each lowered at
   compile time into one generated function of nested loops (one ``for``
   per join step, the head emitted from the innermost one).  Each
   stratum also gets a predicate→(rule, position) trigger map so semi-naive
   iterations fire only the rules a delta actually touches.  Compilation
   happens once per distinct *program*, not per engine: the process-wide
   registry (:mod:`repro.datalog.registry`) shares strata, plans and
   trigger maps across every engine constructed over content-equal programs
   (an engine over a fresh ``PlanRegistry()`` compiles alone); join-order
   memos stay per-engine.
2. **Storage** (:mod:`repro.datalog.columns`) — relations keep their rows
   in append-only arrays and serve probes from one kind of lazily
   materialised index, keyed by bound positions and arity, that catches
   up to the row array in batch on first use after appends.  A document's
   tau_ur relations are built straight from its key's content
   (:class:`~repro.datalog.tree_edb.TreeRelations`), only those the
   program mentions, as duplicate-free row arrays adopted without dedup.
3. **Semi-naive loop** — a naive first round followed by delta iteration.
   Deltas are :class:`~repro.datalog.columns.ColumnarWindow` row-id range
   slices over the interned row arrays (no per-iteration copying); derived
   facts land via batched ``add_batch`` appends.
4. **Fixpoint caching** (:mod:`repro.datalog.cache`) — ``fixpoint()`` keeps
   one LRU of results, sized for the several hot documents of the
   :mod:`repro.server.pipeline` access pattern.  A document is keyed by its
   exact tau_ur encoding (its label and parent columns), built once per
   (immutable) document by :func:`~repro.datalog.tree_edb.document_key`;
   a dict database by a cheap content hash, every hit compared exactly
   against a frozen snapshot.  A result holds the finished rows as tuples
   and freezes a predicate's extension only when it is queried.

A naive nested-loop evaluator lives under ``tests/`` as the reference
oracle; the property suites assert this engine computes its fixpoints.

The specialised linear-time evaluation for monadic datalog over trees
(Theorem 2.4) lives in :mod:`repro.mdatalog.evaluator`; property-based tests
check both engines agree.
"""

from __future__ import annotations

from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..tree.document import Document
from .ast import Database, Program
from .cache import CacheInfo, ContentKey, LruMap, database_content_hash
from .columns import ColumnarDatabase, StorageStats
from .options import DEFAULT_OPTIONS, EngineOptions
from .plan import PlanMemo, RulePlan
from .registry import PlanRegistry, shared_registry
from .tree_edb import TreeRelations, document_key

_EMPTY_EXTENSION: FrozenSet[Tuple[object, ...]] = frozenset()


class EngineInfo(NamedTuple):
    """Storage/executor counters of one engine (``engine_info()``).

    ``closure_compiles`` counts the join plans resident in this engine's
    join-order memos, one per distinct (delta position, size-bucket
    signature) the fixpoints actually exercised.  Several entries may share
    one generated executor (bucket signatures that pick the same join
    order, engines sharing a rule plan), so it does not count executor
    builds; the name is kept from when each entry was its own closure
    chain.  The storage counters come from
    :class:`~repro.datalog.columns.StorageStats`.

    ``posting_intersections`` is always 0: every probe reads one
    ``index(positions, arity)``, keyed by the tuple of bound values when
    several positions are bound, so no posting sets are ever intersected.
    The field stays for readers of the counter snapshot (perfbench's
    per-layer report reads it).
    """

    rows_interned: int
    posting_intersections: int
    delta_batches: int
    delta_rows: int
    max_delta_batch: int
    closure_compiles: int


def aggregate_engine_info(infos: Iterable[EngineInfo]) -> EngineInfo:
    """Sum counters across engines (:meth:`repro.api.Session.engine_info`)."""
    rows = batches = delta_rows = compiles = 0
    max_batch = 0
    for info in infos:
        rows += info.rows_interned
        batches += info.delta_batches
        delta_rows += info.delta_rows
        compiles += info.closure_compiles
        if info.max_delta_batch > max_batch:
            max_batch = info.max_delta_batch
    return EngineInfo(rows, 0, batches, delta_rows, max_batch, compiles)


class EvaluationError(RuntimeError):
    """Raised on unsafe rules or missing relations during evaluation."""


class EvaluationResult:
    """An immutable view of a computed fixpoint.

    Returned by :meth:`SemiNaiveEngine.fixpoint` and cached by the engine so
    that repeated queries over the same database (the
    :mod:`repro.server.pipeline` access pattern) do not recompute.

    ``facts`` maps each predicate to its duplicate-free facts (the engine
    passes its finished rows as tuples, which the cyclic collector stops
    tracking; plain sets work too) and is never mutated.  A document's
    fixpoint also carries the document's
    :class:`~repro.datalog.tree_edb.TreeRelations` (its key's content): a
    tau_ur relation the program never mentioned was never built, and is
    built from it when asked for.  Nothing is frozen until :meth:`query`
    asks for that predicate.
    """

    __slots__ = ("_facts", "_tree", "_views")

    def __init__(
        self,
        facts: Mapping[str, Collection[Tuple[object, ...]]],
        tree: Optional[TreeRelations] = None,
    ) -> None:
        self._facts = facts
        self._tree = tree
        self._views: Dict[str, FrozenSet[Tuple[object, ...]]] = {}

    def _extension(self, predicate: str) -> Collection[Tuple[object, ...]]:
        facts = self._facts.get(predicate)
        if facts is None and self._tree is not None:
            facts = self._tree.rows(predicate)
        return facts or ()

    def query(self, predicate: str) -> FrozenSet[Tuple[object, ...]]:
        """The extension of ``predicate`` as an immutable ``frozenset`` view.

        The view is built once per predicate and shared between calls —
        repeated queries are O(1) instead of copying the whole extension.
        Callers that want a mutable copy should take ``set(result.query(p))``.

        A predicate the program never derives — including one it never
        mentions at all — yields the empty extension rather than an error.
        This is the unknown-predicate contract of the whole stack (see
        docs/API.md): queries are lenient, while *declaring* an undefined
        query predicate (``MonadicProgram(query_predicates=...)``) fails
        fast at construction.
        """
        view = self._views.get(predicate)
        if view is None:
            facts = self._extension(predicate)
            view = frozenset(facts) if facts else _EMPTY_EXTENSION
            self._views[predicate] = view
        return view

    def count(self, predicate: str) -> int:
        """The number of facts of ``predicate``, without freezing them."""
        view = self._views.get(predicate)
        return len(view) if view is not None else len(self._extension(predicate))

    def facts(self) -> Database:
        """A fresh ``{predicate: facts}`` snapshot of the whole fixpoint."""
        return {predicate: set(self._extension(predicate)) for predicate in self.predicates()}

    def predicates(self) -> Set[str]:
        names = set(self._facts)
        if self._tree is not None:
            names |= self._tree.names()
        return names

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._facts or (
            self._tree is not None and predicate in self._tree.names()
        )


class SemiNaiveEngine:
    """Semi-naive bottom-up evaluation with stratified negation.

    Builtin comparison predicates (``lt``, ``le``, ``gt``, ``ge``, ``eq``,
    ``neq``) are evaluated on bound arguments, supporting the paper's
    comparison conditions (Section 3.3).

    Tuning is declared through one :class:`~repro.datalog.options.
    EngineOptions` object (``options=``): ``cache_size`` bounds the
    fixpoint LRU (one entry per distinct hot database).  Join orders are
    planned from live relation sizes, greedily per rule and delta position,
    and memoised per power-of-two size bucket (:mod:`repro.datalog.plan`).

    Strata, rule plans and trigger maps come from a :class:`~repro.datalog.
    registry.PlanRegistry` — the process-wide singleton, or the registry
    passed as ``registry=`` (a :class:`repro.api.Session` passes its own, so
    its compilations stay out of other sessions'; ``registry=PlanRegistry()``
    compiles privately) — so N engines over the same program pay one
    compilation; every piece of database-sized state — join-order memos,
    delta storage, the fixpoint LRU — stays instance-local.
    """

    BUILTINS = {
        "lt": lambda a, b: a < b,
        "le": lambda a, b: a <= b,
        "gt": lambda a, b: a > b,
        "ge": lambda a, b: a >= b,
        "eq": lambda a, b: a == b,
        "neq": lambda a, b: a != b,
    }

    def __init__(
        self,
        program: Program,
        *,
        options: Optional[EngineOptions] = None,
        registry: Optional[PlanRegistry] = None,
    ) -> None:
        if options is None:
            options = DEFAULT_OPTIONS
        program.check_safety()
        self._validate_builtins(program)
        self.program = program
        self.options = options
        #: Every predicate a rule reads or derives; a document fixpoint
        #: builds those that are tau_ur relations before evaluating.
        self._mentioned = tuple(sorted(program.all_predicates()))
        self._storage_stats = StorageStats()
        self._fixpoint_cache: LruMap[ContentKey, EvaluationResult] = LruMap(
            options.cache_size
        )
        compiled = (registry if registry is not None else shared_registry()).compiled(
            program, self.BUILTINS
        )
        self.strata = compiled.strata
        self._stratum_plans = compiled.stratum_plans
        self._stratum_triggers = compiled.stratum_triggers
        # Join-order memos are database-sized state and therefore NEVER
        # shared: one memo per (possibly shared) plan, owned by this engine.
        self._plan_memos: Dict[int, PlanMemo] = {
            id(plan): {} for plans in self._stratum_plans for plan in plans
        }

    def _validate_builtins(self, program: Program) -> None:
        """Builtins are binary comparisons that no rule may define.

        Reject wrong arities up front (a mis-aried builtin such as ``lt(X)``
        would silently never fire its rule) and rules whose head is a
        builtin: body occurrences always evaluate the comparison, so the
        facts such a rule derives would be silently ignored.
        """
        for rule in program.rules:
            if rule.head.predicate in self.BUILTINS:
                raise EvaluationError(
                    f"builtin {rule.head.predicate!r} cannot be defined by a "
                    f"rule: {rule}"
                )
            for literal in rule.body:
                atom = literal.atom
                if atom.predicate in self.BUILTINS and atom.arity != 2:
                    raise EvaluationError(
                        f"builtin {atom.predicate!r} expects 2 arguments, "
                        f"got {atom.arity} in rule: {rule}"
                    )

    # ------------------------------------------------------------------
    def evaluate(self, database: Database) -> Database:
        """Return all derived facts (EDB facts included in the result)."""
        return self._run(ColumnarDatabase(database, self._storage_stats)).to_database()

    def _run(self, facts: ColumnarDatabase) -> ColumnarDatabase:
        """Evaluate every stratum over ``facts`` in place."""
        for plans, triggers in zip(self._stratum_plans, self._stratum_triggers):
            self._evaluate_stratum(plans, triggers, facts)
        return facts

    def _evaluate_tree(self, tree: TreeRelations) -> EvaluationResult:
        """The fixpoint over a document's tau_ur structure.

        Only the relations the program mentions are built, straight from
        the document's encoding and adopted as row arrays without dedup;
        the result builds any other tau_ur relation when it is asked for.
        """
        edb: Dict[str, List[Tuple[object, ...]]] = {}
        for predicate in self._mentioned:
            rows = tree.rows(predicate)
            if rows is not None:
                edb[predicate] = rows
        facts = ColumnarDatabase(edb, self._storage_stats, distinct=True)
        return EvaluationResult(self._run(facts).row_arrays(), tree)

    def engine_info(self) -> EngineInfo:
        """Storage/executor counters (see :class:`EngineInfo`).

        Counters are monotonic across every ``evaluate``/``fixpoint`` this
        engine ran, like :meth:`fixpoint_cache_info`.
        """
        stats = self._storage_stats
        return EngineInfo(
            rows_interned=stats.rows_interned,
            posting_intersections=0,
            delta_batches=stats.delta_batches,
            delta_rows=stats.delta_rows,
            max_delta_batch=stats.max_delta_batch,
            closure_compiles=sum(len(memo) for memo in self._plan_memos.values()),
        )

    def fixpoint(self, source: Union[Database, Document]) -> EvaluationResult:
        """Evaluate with LRU memoisation per database or document content.

        A :class:`~repro.tree.document.Document` is evaluated over its
        tau_ur structure and keyed by
        :func:`~repro.datalog.tree_edb.document_key`, which fingerprints
        each (immutable) document once, so equal but distinct documents
        hit; its relations are built from the key's content (see
        :meth:`_evaluate_tree`), never through
        :func:`~repro.datalog.tree_edb.tree_database`.

        A dict database pays one allocation-free O(|D|) content-hash pass
        plus, on a hash hit, one exact comparison against the snapshot
        stored with the entry — a stale hit can never return a wrong
        fixpoint.  The LRU holds several entries so the multi-document
        server working set does not thrash the cache.
        """
        if isinstance(source, Document):
            tree_key = document_key(source)
            return self._fixpoint_cache.get_or_build(
                tree_key, lambda: self._evaluate_tree(tree_key.content)
            )
        key = ContentKey(source, database_content_hash(source))
        return self._fixpoint_cache.get_or_build(
            key, lambda: self._evaluate_database(key, source)
        )

    def _evaluate_database(self, key: ContentKey, database: Database) -> EvaluationResult:
        """The fixpoint over ``database``, the content ``key`` was looked up with.

        The map stores ``key`` itself, so its live dict is swapped for an
        equal frozen snapshot first: a later in-place edit of the caller's
        dict must not reach the stored key.
        """
        key.content = snapshot = {
            predicate: frozenset(facts) for predicate, facts in database.items()
        }
        facts = self._run(ColumnarDatabase(snapshot, self._storage_stats))
        return EvaluationResult(facts.row_arrays())

    def query(
        self, source: Union[Database, Document], predicate: str
    ) -> FrozenSet[Tuple[object, ...]]:
        """Evaluate (cached) and return the extension of ``predicate``."""
        return self.fixpoint(source).query(predicate)

    def fixpoint_cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the fixpoint LRU (for tests/benchmarks)."""
        return self._fixpoint_cache.info()

    def plan_memo_counts(self) -> List[int]:
        """Compiled join plans per rule in this engine's instance-local
        memos (bucket-memoisation introspection for tests/benchmarks)."""
        return [
            len(self._plan_memos[id(plan)])
            for plans in self._stratum_plans
            for plan in plans
        ]

    def clear_fixpoint_cache(self) -> None:
        self._fixpoint_cache.clear()

    # ------------------------------------------------------------------
    # Stratum evaluation (batched deltas over append-only row arrays)
    # ------------------------------------------------------------------
    def _evaluate_stratum(
        self,
        plans: List[RulePlan],
        triggers: Dict[str, List[Tuple[RulePlan, int]]],
        facts: ColumnarDatabase,
    ) -> None:
        """Semi-naive iteration as watermark advancement.

        Columnar relations are append-only with interned rows, so "the
        facts derived last iteration" is exactly the row-id range between
        two watermarks — no delta database is built, cleared or re-indexed.
        Each round advances one watermark per derived predicate and slides
        a reusable :class:`~repro.datalog.columns.ColumnarWindow` over the
        new range.
        """
        memos = self._plan_memos
        stats = self._storage_stats
        heads = list({plan.head_predicate for plan in plans})
        # Rows at or past the watermark were not yet applied as a delta.
        consumed = {predicate: facts.row_count(predicate) for predicate in heads}
        # Naive first round: every rule fires once without delta
        # restriction; derived facts append past the watermarks.
        for plan in plans:
            derived = plan.run(facts, memo=memos[id(plan)])
            if derived:
                facts.add_batch(plan.head_predicate, derived)
        # Per-head sweep state, resolved once: the reusable delta window,
        # the head relation the derivations append into, and each trigger's
        # (run, position, memo, target-relation) quad — the sweep below runs
        # tens of thousands of times on recursive workloads, so no dict or
        # attribute lookups happen inside it.
        scratch = [predicate for predicate in heads if predicate not in facts]
        # Mutable sweep entries: [window, rows, consumed-watermark, fired].
        # The row array reference is stable (relations persist across the
        # whole stratum), so the high watermark is a bare len() per sweep.
        sweep = []
        for predicate in heads:
            fired = [
                (plan.run, position, memos[id(plan)], facts.relation(plan.head_predicate))
                for plan, position in triggers.get(predicate, ())
            ]
            window = facts.window(predicate)
            sweep.append([window, window.relation.rows, consumed[predicate], fired])
        batches = rows_applied = max_batch = 0
        try:
            while True:
                advanced = False
                for entry in sweep:
                    window, rows, lo, fired = entry
                    hi = len(rows)
                    if hi <= lo:
                        continue
                    advanced = True
                    entry[2] = hi
                    if not fired:
                        continue
                    batches += 1
                    rows_applied += hi - lo
                    if hi - lo > max_batch:
                        max_batch = hi - lo
                    window.lo = lo
                    window.hi = hi
                    for run, position, memo, head_rel in fired:
                        derived = run(facts, window, position, memo)
                        if derived:
                            head_rel.add_batch(derived)
                if not advanced:
                    facts.prune_empty(scratch)
                    return
        finally:
            stats.delta_batches += batches
            stats.delta_rows += rows_applied
            if max_batch > stats.max_delta_batch:
                stats.max_delta_batch = max_batch


def query_program(
    program: Program, database: Database, predicate: str
) -> FrozenSet[Tuple[object, ...]]:
    """One-shot helper: the extension of ``predicate`` after evaluation."""
    return SemiNaiveEngine(program).query(database, predicate)
