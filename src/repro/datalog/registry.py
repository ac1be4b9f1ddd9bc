"""Shared compiled-program registry: cross-engine rule-plan reuse.

The Transformation Server (Section 5) hosts hundreds of wrapper components,
and in practice most of them wrap the same handful of Elog / monadic-datalog
programs.  :class:`PlanRegistry` makes N components over K distinct
programs pay K compilations — stratification, one
:class:`~repro.datalog.plan.RulePlan` per rule, the per-stratum delta
trigger maps — instead of N:

* Programs are keyed by their :data:`ProgramSnapshot` (rule set plus EDB
  split) and the builtin table, compared exactly, so a colliding hash can
  never alias two different programs.  Programs whose rule *sets* are equal
  share one compilation regardless of rule order or duplication (neither
  affects the fixpoint).
* The shared :class:`CompiledProgram` holds only immutable-per-program
  state: the strata, the ``RulePlan`` list per stratum, and the trigger
  maps.  Everything sized by the *database* rather than the program —
  join-order memos keyed by size buckets, delta databases, fixpoint LRUs —
  stays instance-local in the engines (see ``SemiNaiveEngine._plan_memos``),
  so two engines over wildly different databases never fight over plans and
  sharing is safe under concurrent evaluation.
* Both stores are :class:`~repro.datalog.cache.LruMap` instances:
  least-recently-used eviction, one compilation per key under concurrency,
  and hit/miss counters behind :meth:`PlanRegistry.info`, so the server
  benchmarks can assert "200 components, 4 programs, 4 compilations".

Engines compile through the module-level singleton
(:func:`shared_registry`) unless given a ``registry=``; a fresh
``PlanRegistry()`` is a private compilation.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Tuple

from .ast import Program, Rule
from .cache import CacheInfo, LruMap
from .plan import RulePlan, compile_stratum
from .stratify import stratify

#: Exact identity of a program for sharing purposes: the rule set plus the
#: EDB split.  Rule order and duplication are deliberately ignored — both
#: are fixpoint-preserving, so programs differing only in those share.
ProgramSnapshot = Tuple[FrozenSet[Rule], FrozenSet[str]]


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

    __slots__ = ("strata", "stratum_plans", "stratum_triggers")

    def __init__(
        self, program: Program, builtins: Mapping[str, Callable[..., bool]]
    ) -> None:
        self.strata: List[List[Rule]] = stratify(program)
        self.stratum_plans: List[List[RulePlan]] = []
        self.stratum_triggers: List[Dict[str, List[Tuple[RulePlan, int]]]] = []
        for stratum_rules in self.strata:
            plans, triggers = compile_stratum(stratum_rules, builtins)
            self.stratum_plans.append(plans)
            self.stratum_triggers.append(triggers)

    def plans(self) -> Iterator[RulePlan]:
        """All rule plans across strata (introspection / memo setup)."""
        for stratum in self.stratum_plans:
            yield from stratum


class PlanRegistry:
    """An LRU of compiled programs, plus one of per-program analysis artifacts.

    A program's key is its :func:`program_snapshot` and the items of its
    builtin table (every engine shares the class-level
    ``SemiNaiveEngine.BUILTINS`` mapping; a table binding any name to a
    different function gets its own entries).  Compilation runs outside the
    lock, once per key.
    """

    # __weakref__ lets per-registry companion caches (e.g. the automata
    # layer's evaluator caches) key weakly on the registry without pinning
    # it alive.
    __slots__ = ("_programs", "_analyses", "__weakref__")

    def __init__(self, capacity: int = 256) -> None:
        self._programs: LruMap[tuple, CompiledProgram] = LruMap(capacity)
        self._analyses: LruMap[tuple, object] = LruMap(capacity)

    @property
    def capacity(self) -> int:
        return self._programs.capacity

    def __len__(self) -> int:
        return len(self._programs)

    def compiled(
        self, program: Program, builtins: Mapping[str, Callable[..., bool]]
    ) -> CompiledProgram:
        """The shared compilation of ``program``, compiling on first use."""
        return self._programs.get_or_build(
            (program_snapshot(program), frozenset(builtins.items())),
            lambda: CompiledProgram(program, builtins),
        )

    def analysis_cached(
        self,
        program: Program,
        compute: Callable[[], object],
        key: object = None,
    ) -> object:
        """A per-program derived artifact, computed once per content.

        Keyed like :meth:`compiled` — two content-equal programs
        (regardless of rule order or duplication) share one ``compute()``
        result.  ``key`` distinguishes variants of the artifact for the
        same program (the analysis layer passes the assumed EDB signature).
        """
        return self._analyses.get_or_build((program_snapshot(program), key), compute)

    def clear(self) -> None:
        self._programs.clear()
        self._analyses.clear()

    def info(self) -> CacheInfo:
        return self._programs.info()

    def analysis_info(self) -> CacheInfo:
        """Hit/miss statistics of the analysis-artifact store."""
        return self._analyses.info()


#: Process-wide singleton: every engine built without ``registry=``
#: compiles through this registry.
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
