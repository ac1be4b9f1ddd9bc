"""Evaluation of monadic datalog over trees in time O(|P| * |dom|).

Theorem 2.4 of the paper: over tau_ur, monadic datalog has O(|P| * |dom|)
combined complexity.  The proof grounds the program (linear because the
binary tree relations are functional in both directions) and evaluates the
ground program with a linear-time unit-resolution procedure [Minoux 29].

:class:`MonadicTreeEvaluator` implements that pipeline without ever
building the ground program:

1. rewrite the program to TMNF (Theorem 2.7) — or accept it as-is when it is
   already in TMNF — and compile it, once per program, into a trigger table
   keyed by body predicate: a form-(1) rule copies an atom to its head, a
   form-(2) rule steps along one of the six partial functions firstchild,
   nextsibling, lastchild and their inverses, a form-(3) rule checks its
   other conjunct;
2. per document, read those functions from the document's one tau_ur
   encoding (``document_key(document).content``, a
   :class:`~repro.datalog.tree_edb.TreeRelations` that builds them once
   per document, not per miss) and seed the EDB unary atoms the program
   mentions;
3. run one LTUR-style worklist over (predicate, node) atoms with one truth
   table per predicate.  Every TMNF rule has at most one ground instance per
   node, so each derived atom fires each of its triggers once: the work is
   O(#predicates * |dom| + derived atoms * triggers) — the truth tables are
   allocated and copied whole — inside the Theorem 2.4 bound
   O(|P| * |dom|).

Programs outside the TMNF-rewritable fragment (cyclic rule bodies, negation)
transparently fall back to the generic semi-naive engine over the document
(``SemiNaiveEngine.fixpoint(document)``), preserving semantics at the price
of the general-case complexity.
"""

from __future__ import annotations

from functools import partial
from itertools import compress
from typing import Dict, List, Optional, Tuple

from ..datalog.cache import CacheInfo, ContentKey, LruMap
from ..datalog.engine import SemiNaiveEngine
from ..datalog.options import DEFAULT_OPTIONS, EngineOptions
from ..datalog.registry import PlanRegistry
# tree_database is not called here; kept importable because
# perfbench/layers.py wraps it.
from ..datalog.tree_edb import (  # noqa: F401
    TAU_UR_UNARY,
    TreeRelations,
    document_key,
    tree_database,
)
from ..tree.document import Document
from ..tree.node import Node
from .program import MonadicProgram
from .tmnf import TMNFRewriteError, is_tmnf, rule_tmnf_form, to_tmnf

# Steps of the trigger table: the identity (forms 1 and 3) and the six
# partial functions of form 2 — each TMNF binary relation B, read from its
# first argument (B(x0, x): x = B(x0)) and from its second (B(x, x0)).
_SAME = 0
#: relation -> (step for B(x0, x), step for B(x, x0))
_RELATION_STEPS = {
    "firstchild": (1, 4),
    "nextsibling": (2, 5),
    "lastchild": (3, 6),
}

def _is_edb_unary(predicate: str) -> bool:
    return predicate in TAU_UR_UNARY or predicate.startswith("label_")


class _TriggerTable:
    """A TMNF program compiled for implicit grounding.

    ``triggers[q]`` lists ``(head, step, guard)`` for every rule reading
    predicate id ``q``: a new atom ``q(n)`` derives ``head(step(n))`` when
    ``guard`` (the other form-(3) conjunct, ``-1`` for none) already holds
    there.  ``seeds`` pairs each EDB unary predicate the program mentions
    with its id.
    """

    __slots__ = ("index", "triggers", "seeds")

    def __init__(self, program: MonadicProgram) -> None:
        self.index: Dict[str, int] = {}
        triggers: List[List[Tuple[int, int, int]]] = []

        def predicate_id(name: str) -> int:
            if name not in self.index:
                self.index[name] = len(triggers)
                triggers.append([])
            return self.index[name]

        for rule in program.rules:
            form = rule_tmnf_form(rule)
            head = predicate_id(rule.head.predicate)
            head_variable = rule.head.terms[0]
            unary = [literal.atom for literal in rule.body if literal.atom.arity == 1]
            if form == 1:
                triggers[predicate_id(unary[0].predicate)].append((head, _SAME, -1))
            elif form == 2:
                binary = next(
                    literal.atom for literal in rule.body if literal.atom.arity == 2
                )
                forward, backward = _RELATION_STEPS[binary.predicate]
                step = backward if binary.terms[0] == head_variable else forward
                triggers[predicate_id(unary[0].predicate)].append((head, step, -1))
            elif form == 3:
                first, second = (predicate_id(atom.predicate) for atom in unary)
                triggers[first].append((head, _SAME, second))
                if second != first:
                    triggers[second].append((head, _SAME, first))
            else:  # pragma: no cover - callers pass TMNF programs only
                raise TMNFRewriteError(f"rule {rule} is not in TMNF")
        self.triggers = tuple(tuple(fired) for fired in triggers)
        self.seeds = tuple(
            (name, position)
            for name, position in self.index.items()
            if _is_edb_unary(name)
        )


def _trigger_table(program: MonadicProgram) -> Optional[_TriggerTable]:
    """Rewrite to TMNF and compile, or ``None`` outside the TMNF fragment."""
    try:
        return _TriggerTable(program if is_tmnf(program) else to_tmnf(program))
    except TMNFRewriteError:
        return None


#: Shared compiled programs (cross-evaluator program reuse, mirroring the
#: compiled-plan registry of :mod:`repro.datalog.registry`): hundreds of
#: server components wrapping the same monadic program pay one Theorem-2.7
#: rewrite and one trigger-table compilation.  Keyed exactly — the rule
#: tuple plus the query predicates — so a hit can never alias two different
#: programs; a cached ``None`` records a program outside the TMNF fragment
#: so its failed rewrite is not retried per component either.  It is the
#: one memo deliberately not owned by a session's registry (a per-registry
#: rewrite made session setup about 30% slower; see docs/API.md).
_TMNF_CACHE: "LruMap[Tuple[object, ...], Optional[_TriggerTable]]" = LruMap(64)


def _edb_nodes(tree: TreeRelations, predicate: str) -> List[int]:
    """The nodes of one tau_ur unary relation (none for an absent label)."""
    return [node for (node,) in tree.rows(predicate) or ()]


def _propagate(table: _TriggerTable, tree: TreeRelations) -> Tuple[bytes, ...]:
    """LTUR over the implicit ground program: one truth table per predicate
    id, one worklist of (triggers of the derived predicate, node) pairs,
    pushed flat.

    A step off the tree lands on the sentinel ``n`` of
    :meth:`~repro.datalog.tree_edb.TreeRelations.step_functions`, which
    every truth table holds true, so it never derives anything.
    """
    n = len(tree.labels)
    functions = tree.step_functions()
    truth = [bytearray(n + 1) for _ in table.triggers]
    for holds in truth:
        holds[n] = 1
    unguarded = b"\x01" * (n + 1)
    fired: List[list] = [[] for _ in table.triggers]
    for body, triggers in enumerate(table.triggers):
        fired[body].extend(
            (
                truth[head],
                fired[head],
                functions[step],
                truth[guard] if guard >= 0 else unguarded,
            )
            for head, step, guard in triggers
        )
    worklist: list = []
    push = worklist.append
    for name, position in table.seeds:
        holds, triggers = truth[position], fired[position]
        for node in _edb_nodes(tree, name):
            if not holds[node]:
                holds[node] = 1
                if triggers:
                    push(triggers)
                    push(node)
    pop = worklist.pop
    while worklist:
        node = pop()
        triggers = pop()
        for holds, head_triggers, step, guard in triggers:
            target = step[node]
            if not holds[target] and guard[target]:
                holds[target] = 1
                if head_triggers:
                    push(head_triggers)
                    push(target)
    return tuple(bytes(holds) for holds in truth)


class MonadicTreeEvaluator:
    """Evaluates a monadic datalog program over documents.

    The evaluator is reusable: construct once per program, call
    :meth:`evaluate` per document.  Both pipelines memoise fixpoints across
    a working set of ``cache_size`` hot documents (the
    :mod:`repro.server.pipeline` access pattern), both keyed by
    :func:`~repro.datalog.tree_edb.document_key` (the document's exact
    tau_ur encoding, built once per document): the generic engine through
    its fixpoint LRU, the ground pipeline through an LRU of per-predicate
    truth tables — node identities are re-resolved per call, so cached
    results are safe across equal-but-distinct document objects.

    The per-program analysis is shared across evaluator instances: the TMNF
    rewrite through the module-level rewrite cache, and (in the generic
    fallback) the engine's compiled rule plans through
    :mod:`repro.datalog.registry` — the process-wide registry, or the one
    passed as ``registry=`` (a :class:`repro.api.Session` passes its own).
    Per-document caches are always instance-local.

    Tuning is declared through one :class:`~repro.datalog.options.
    EngineOptions` (``options=``).
    """

    def __init__(
        self,
        program: MonadicProgram,
        *,
        options: Optional[EngineOptions] = None,
        registry: Optional[PlanRegistry] = None,
    ) -> None:
        if options is None:
            options = DEFAULT_OPTIONS
        self.program = program
        self.options = options
        self._triggers: Optional[_TriggerTable] = None
        self._generic_engine: Optional[SemiNaiveEngine] = None
        self._ground_cache: LruMap[ContentKey, Tuple[bytes, ...]] = LruMap(
            options.cache_size
        )

        if not options.force_generic and not program.uses_negation():
            self._triggers = _TMNF_CACHE.get_or_build(
                (tuple(program.rules), program.query_predicates),
                partial(_trigger_table, program),
            )
        self.uses_ground_pipeline = self._triggers is not None
        if self._triggers is None:
            self._generic_engine = SemiNaiveEngine(
                program.to_datalog_program(),
                options=options,
                registry=registry,
            )

    def fixpoint_cache_info(self) -> CacheInfo:
        """Hit/miss statistics of whichever fixpoint cache is active."""
        if self._generic_engine is not None:
            return self._generic_engine.fixpoint_cache_info()
        return self._ground_cache.info()

    def engine_info(self):
        """Storage/executor counters of the generic fallback engine, or
        ``None`` when the Theorem-2.4 ground+LTUR pipeline is active (it
        evaluates propositionally — there is no relational storage to
        count)."""
        if self._generic_engine is not None:
            return self._generic_engine.engine_info()
        return None

    # ------------------------------------------------------------------
    def evaluate(self, document: Document) -> Dict[str, List[Node]]:
        """Evaluate and return {query predicate: nodes in document order}."""
        if self._triggers is not None:
            truth = self._ground_truth(document)
            index = self._triggers.index
            return {
                predicate: list(compress(document, truth[index[predicate]]))
                for predicate in self.program.query_predicates
            }
        return self._evaluate_generic(document)

    def select(self, document: Document, predicate: str) -> List[Node]:
        """The nodes selected by one unary predicate, in document order.

        Any predicate the program derives is selectable — query predicates
        and auxiliary IDB predicates alike — mirroring
        :meth:`~repro.datalog.engine.EvaluationResult.query`, whose fixpoint
        also contains the auxiliary relations and the tau_ur unary
        relations.  Only *unary* extensions select nodes: the generic
        engine's fixpoint also carries the binary tree relations, which must
        not leak out as (duplicated) first components.  A binary predicate
        or one the program never defines yields ``[]`` rather than an
        error: the stack-wide unknown-predicate contract (see docs/API.md)
        is lenient at query time and strict only at declaration time
        (``MonadicProgram(query_predicates=...)``).
        """
        if self._triggers is not None:
            position = self._triggers.index.get(predicate)
            if position is not None:
                return list(compress(document, self._ground_truth(document)[position]))
            if not _is_edb_unary(predicate):
                return []
            nodes = _edb_nodes(document_key(document).content, predicate)
            return [document.node_at(index) for index in sorted(nodes)]
        if predicate in self.program.query_predicates:
            return self._evaluate_generic(document).get(predicate, [])
        assert self._generic_engine is not None
        derived = self._generic_engine.fixpoint(document)
        indexes = sorted(
            value[0] for value in derived.query(predicate) if len(value) == 1
        )
        return [document.node_at(index) for index in indexes]

    # ------------------------------------------------------------------
    # Implicit grounding (Theorem 2.4)
    # ------------------------------------------------------------------
    def _ground_truth(self, document: Document) -> Tuple[bytes, ...]:
        """Truth tables by predicate id, through the document-key LRU.

        The key is exact (labels + shape determine every tau_ur relation),
        so equal-but-distinct documents share one propagation.
        """
        assert self._triggers is not None
        key = document_key(document)
        return self._ground_cache.get_or_build(
            key, partial(_propagate, self._triggers, key.content)
        )

    # ------------------------------------------------------------------
    # Generic fallback
    # ------------------------------------------------------------------
    def _evaluate_generic(self, document: Document) -> Dict[str, List[Node]]:
        assert self._generic_engine is not None
        derived = self._generic_engine.fixpoint(document)
        result: Dict[str, List[Node]] = {}
        for predicate in self.program.query_predicates:
            indexes = sorted(value[0] for value in derived.query(predicate))
            result[predicate] = [document.node_at(index) for index in indexes]
        return result


def evaluate(program: MonadicProgram, document: Document) -> Dict[str, List[Node]]:
    """One-shot evaluation helper."""
    return MonadicTreeEvaluator(program).evaluate(document)


def select(program: MonadicProgram, document: Document, predicate: str) -> List[Node]:
    """One-shot helper returning the nodes selected by ``predicate``."""
    return MonadicTreeEvaluator(program).select(document, predicate)
