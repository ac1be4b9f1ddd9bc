"""Shared compiled-program registry: cross-engine rule-plan reuse.

The Transformation Server (Section 5) hosts hundreds of wrapper components,
and in practice most of them wrap the same handful of Elog / monadic-datalog
programs.  Before this module, every :class:`~repro.datalog.engine.
SemiNaiveEngine` recompiled the identical program at construction —
stratification, one :class:`~repro.datalog.plan.RulePlan` per rule, the
per-stratum delta trigger maps — so N components over K distinct programs
paid N compilations instead of K.

:class:`PlanRegistry` interns those compilation artifacts process-wide:

* Programs are keyed by a cheap, order-independent content fingerprint
  (:func:`program_fingerprint`, mirroring
  :func:`repro.datalog.cache.database_content_hash`), and every fingerprint
  hit is verified exactly against a stored rule-set snapshot before the
  compiled program is shared — a colliding hash can never alias two
  different programs.  Programs whose rule *sets* are equal share one
  compilation regardless of rule order or duplication (neither affects the
  fixpoint).
* The shared :class:`CompiledProgram` holds only immutable-per-program
  state: the strata, the ``RulePlan`` list per stratum, and the trigger
  maps.  Everything sized by the *database* rather than the program —
  join-order memos keyed by size buckets, delta databases, fixpoint LRUs —
  stays instance-local in the engines (see ``SemiNaiveEngine._plan_memos``),
  so two engines over wildly different databases never fight over plans and
  sharing is safe under concurrent evaluation.
* Entries are evicted least-recently-used; hit/miss counters are exposed
  through :meth:`PlanRegistry.info` exactly like the fixpoint cache, so the
  server benchmarks can assert "200 components, 4 programs, 4 compilations".

``SemiNaiveEngine(share_plans=False)`` opts an engine out (the ablation
baseline); the registry itself is a module-level singleton reachable through
:func:`shared_registry` / :func:`shared_compiled_program`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Tuple

from .ast import Program, Rule
from .cache import CacheInfo, VerifiedLruBuckets
from .plan import RulePlan, compile_stratum
from .stratify import stratify

#: Exact identity of a program for sharing purposes: the rule set plus the
#: EDB split.  Rule order and duplication are deliberately ignored — both
#: are fixpoint-preserving, so programs differing only in those share.
ProgramSnapshot = Tuple[FrozenSet[Rule], FrozenSet[str]]


def program_fingerprint(program: Program) -> int:
    """A cheap, order-independent content fingerprint of ``program``.

    Mirrors :func:`repro.datalog.cache.database_content_hash`: XOR-combining
    per-rule hashes makes the result independent of rule order without
    sorting, and the rule count plus the EDB predicate set are folded in so
    that structurally different programs rarely collide.  Collisions are
    harmless — the registry verifies every hit exactly against a
    :data:`ProgramSnapshot`.
    """
    rules_hash = 0
    for rule in program.rules:
        rules_hash ^= hash(rule)
    return hash((len(program.rules), rules_hash, program.edb_predicates))


def program_snapshot(program: Program) -> ProgramSnapshot:
    return (frozenset(program.rules), program.edb_predicates)


class CompiledProgram:
    """The shared, per-program compilation artifacts of one datalog program.

    Everything here depends only on the program text (and the builtin
    table), never on a database: strata, rule plans, and trigger maps are
    immutable once built and safe to share across any number of engines.
    Database-dependent state — the bucket-keyed join-order memos that
    ``RulePlan.run`` consults — is supplied per call by each engine.
    """

    __slots__ = (
        "fingerprint",
        "strata",
        "stratum_plans",
        "stratum_triggers",
        "index_advice",
    )

    def __init__(
        self,
        program: Program,
        builtins: Mapping[str, Callable[..., bool]],
        fingerprint: int,
    ) -> None:
        self.fingerprint = fingerprint
        self.strata: List[List[Rule]] = stratify(program)
        self.stratum_plans: List[List[RulePlan]] = []
        self.stratum_triggers: List[Dict[str, List[Tuple[RulePlan, int]]]] = []
        for stratum_rules in self.strata:
            plans, triggers = compile_stratum(stratum_rules, builtins)
            self.stratum_plans.append(plans)
            self.stratum_triggers.append(triggers)
        # Seed every plan from the static cost model and record which hash
        # indexes the seeded plans will probe (the engine pre-builds them).
        # The plans are not yet published to any engine here, so seeding
        # needs no locking; the import is lazy only to keep the low-level
        # datalog package importable without the analysis layer at
        # module-import time (analysis imports plan/stratify from here).
        from ..analysis.cost import seed_rule_plans

        self.index_advice: Dict[str, Tuple[Tuple[int, ...], ...]] = seed_rule_plans(
            self.stratum_plans, self.stratum_triggers, program
        )

    def plans(self) -> Iterator[RulePlan]:
        """All rule plans across strata (introspection / memo setup)."""
        for stratum in self.stratum_plans:
            yield from stratum


class _Entry:
    __slots__ = ("snapshot", "builtins", "compiled")

    def __init__(
        self,
        snapshot: ProgramSnapshot,
        builtins: Mapping[str, Callable[..., bool]],
        compiled: CompiledProgram,
    ) -> None:
        self.snapshot = snapshot
        self.builtins = builtins
        self.compiled = compiled


class _AnalysisEntry:
    __slots__ = ("snapshot", "key", "value")

    def __init__(self, snapshot: ProgramSnapshot, key: object, value: object) -> None:
        self.snapshot = snapshot
        self.key = key
        self.value = value


class PlanRegistry:
    """An LRU of compiled programs keyed by content fingerprints.

    Built on the same :class:`~repro.datalog.cache.VerifiedLruBuckets` core
    as the fixpoint cache: fingerprint buckets disambiguated by exact
    snapshot comparison, least-recently-used eviction, and hit/miss
    counters behind :meth:`info`.  Builtin tables are compared by identity
    (every engine shares the class-level ``SemiNaiveEngine.BUILTINS``
    mapping); a caller with a custom table gets its own entries.  All
    registry operations are lock-protected so engines constructed from
    concurrent server threads share safely; compilation itself runs outside
    the lock.
    """

    # __weakref__ lets per-registry companion caches (e.g. the automata
    # layer's evaluator caches) key weakly on the registry without pinning
    # it alive.
    __slots__ = (
        "hits",
        "misses",
        "analysis_hits",
        "analysis_misses",
        "_entries",
        "_analysis",
        "_lock",
        "__weakref__",
    )

    def __init__(self, capacity: int = 256) -> None:
        self.hits = 0
        self.misses = 0
        self.analysis_hits = 0
        self.analysis_misses = 0
        # One lock serves both the counters and the bucket core (re-entrant,
        # so the buckets' own internal locking nests under the compound
        # find-or-insert sections below without deadlocking).
        self._lock = threading.RLock()
        self._entries: VerifiedLruBuckets[_Entry] = VerifiedLruBuckets(
            capacity, lock=self._lock
        )
        # Companion store for per-program derived artifacts (static-analysis
        # reports).  Kept generic — the registry stays analysis-agnostic;
        # callers supply the compute closure and an extra key for variants
        # (e.g. which EDB signature the analysis assumed).
        self._analysis: VerifiedLruBuckets[_AnalysisEntry] = VerifiedLruBuckets(
            capacity, lock=self._lock
        )

    @property
    def capacity(self) -> int:
        return self._entries.capacity

    def __len__(self) -> int:
        return len(self._entries)

    def compiled(
        self, program: Program, builtins: Mapping[str, Callable[..., bool]]
    ) -> CompiledProgram:
        """The shared compilation of ``program``, compiling on first use."""
        fingerprint = program_fingerprint(program)
        snapshot = program_snapshot(program)

        def matches(entry: _Entry) -> bool:
            return entry.builtins is builtins and entry.snapshot == snapshot

        with self._lock:
            entry = self._entries.find(fingerprint, matches)
            if entry is not None:
                self.hits += 1
                return entry.compiled
            self.misses += 1
        compiled = CompiledProgram(program, builtins, fingerprint)
        with self._lock:
            # A racing thread may have compiled the same program meanwhile;
            # keep its entry so every engine shares one object.
            entry = self._entries.find(fingerprint, matches)
            if entry is not None:
                return entry.compiled
            self._entries.insert(fingerprint, _Entry(snapshot, builtins, compiled))
        return compiled

    def analysis_cached(
        self,
        program: Program,
        compute: Callable[[], object],
        key: object = None,
    ) -> object:
        """A per-program derived artifact, computed once per content.

        Keyed by the same content fingerprint/snapshot discipline as
        :meth:`compiled` — two content-equal programs (regardless of rule
        order or duplication) share one ``compute()`` result.  ``key``
        distinguishes variants of the artifact for the same program (the
        analysis layer passes the assumed EDB signature).  ``compute`` runs
        outside the lock; on a race the first inserted value wins.
        """
        fingerprint = hash((program_fingerprint(program), key))
        snapshot = program_snapshot(program)

        def matches(entry: _AnalysisEntry) -> bool:
            return entry.key == key and entry.snapshot == snapshot

        with self._lock:
            entry = self._analysis.find(fingerprint, matches)
            if entry is not None:
                self.analysis_hits += 1
                return entry.value
            self.analysis_misses += 1
        value = compute()
        with self._lock:
            entry = self._analysis.find(fingerprint, matches)
            if entry is not None:
                return entry.value
            self._analysis.insert(
                fingerprint, _AnalysisEntry(snapshot, key, value)
            )
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._analysis.clear()
            self.hits = 0
            self.misses = 0
            self.analysis_hits = 0
            self.analysis_misses = 0

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self.hits, self.misses, len(self._entries), self.capacity)

    def analysis_info(self) -> CacheInfo:
        """Hit/miss statistics of the analysis-artifact store."""
        with self._lock:
            return CacheInfo(
                self.analysis_hits,
                self.analysis_misses,
                len(self._analysis),
                self._analysis.capacity,
            )


#: Process-wide singleton: every engine with ``share_plans=True`` (the
#: default) compiles through this registry.
_SHARED_REGISTRY = PlanRegistry()


def shared_registry() -> PlanRegistry:
    """The process-wide compiled-program registry."""
    return _SHARED_REGISTRY


def shared_compiled_program(
    program: Program, builtins: Mapping[str, Callable[..., bool]]
) -> CompiledProgram:
    """Compile ``program`` through the shared registry (or reuse)."""
    return _SHARED_REGISTRY.compiled(program, builtins)


def plan_registry_info() -> CacheInfo:
    """Hit/miss statistics of the shared registry (tests / monitoring)."""
    return _SHARED_REGISTRY.info()


def clear_plan_registry() -> None:
    """Drop every shared compilation and reset the counters."""
    _SHARED_REGISTRY.clear()
