"""Evaluation of monadic datalog over trees in time O(|P| * |dom|).

Theorem 2.4 of the paper: over tau_ur, monadic datalog has O(|P| * |dom|)
combined complexity.  The proof grounds the program (linear because the
binary tree relations are functional in both directions) and evaluates the
ground program with a linear-time unit-resolution procedure [Minoux 29].

:class:`MonadicTreeEvaluator` implements exactly that pipeline:

1. rewrite the program to TMNF (Theorem 2.7) — or accept it as-is when it is
   already in TMNF;
2. ground each TMNF rule against the document (at most one ground instance
   per node or per edge of the relevant relation);
3. run :class:`~repro.datalog.ltur.GroundHornSolver`.

Programs outside the TMNF-rewritable fragment (cyclic rule bodies, negation)
transparently fall back to the generic semi-naive engine over the tree
database, preserving semantics at the price of the general-case complexity.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..datalog.ast import Rule, Variable
from ..datalog.cache import CacheInfo, LruMap
from ..datalog.engine import SemiNaiveEngine
from ..datalog.ltur import GroundHornSolver
from ..datalog.options import DEFAULT_OPTIONS, EngineOptions
from ..datalog.registry import PlanRegistry
from ..datalog.tree_edb import label_predicate, tree_database, tree_fingerprint
from ..tree.document import Document
from ..tree.node import Node
from .program import MonadicProgram
from .tmnf import TMNFRewriteError, is_tmnf, rule_tmnf_form, to_tmnf

GroundAtom = Tuple[str, int]  # (predicate, preorder index)

#: Shared TMNF rewrites (cross-evaluator program reuse, mirroring the
#: compiled-plan registry of :mod:`repro.datalog.registry`): hundreds of
#: server components wrapping the same monadic program pay one Theorem-2.7
#: rewrite.  Keyed exactly — the rule tuple plus the query predicates — so
#: a hit can never alias two different programs; the sentinel records
#: programs outside the TMNF fragment so their failed rewrite is not
#: retried per component either.
_TMNF_UNREWRITABLE = object()
_TMNF_CACHE: LruMap[Tuple[object, ...], object] = LruMap(64)


def _shared_tmnf_program(program: MonadicProgram) -> Optional[MonadicProgram]:
    key = (tuple(program.rules), program.query_predicates)
    cached = _TMNF_CACHE.get(key)
    if cached is not None:
        return None if cached is _TMNF_UNREWRITABLE else cached  # type: ignore[return-value]
    try:
        tmnf = program if is_tmnf(program) else to_tmnf(program)
    except TMNFRewriteError:
        _TMNF_CACHE.put(key, _TMNF_UNREWRITABLE)
        return None
    _TMNF_CACHE.put(key, tmnf)
    return tmnf


class MonadicTreeEvaluator:
    """Evaluates a monadic datalog program over documents.

    The evaluator is reusable: construct once per program, call
    :meth:`evaluate` per document.  Both pipelines memoise fixpoints across
    a working set of ``cache_size`` hot documents (the
    :mod:`repro.server.pipeline` access pattern): the generic engine through
    its content-keyed fixpoint LRU, the ground pipeline through an LRU of
    LTUR truth sets keyed by exact tree fingerprints — node identities are
    re-resolved per call, so cached truths are safe across equal-but-distinct
    document objects.

    ``share_plans=True`` (the default) additionally shares the per-program
    analysis across evaluator instances: the TMNF rewrite through the
    module-level rewrite cache, and (in the generic fallback) the engine's
    compiled rule plans through :mod:`repro.datalog.registry` — the
    process-wide registry, or the one passed as ``registry=`` (a
    :class:`repro.api.Session` passes its own).  Per-document caches are
    always instance-local.

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
        self.uses_ground_pipeline = False
        self._tmnf_program: Optional[MonadicProgram] = None
        self._generic_engine: Optional[SemiNaiveEngine] = None
        self._ground_cache: LruMap[
            Tuple[Tuple[str, int], ...], FrozenSet[GroundAtom]
        ] = LruMap(options.cache_size)

        if not options.force_generic and not program.uses_negation():
            if options.share_plans:
                self._tmnf_program = _shared_tmnf_program(program)
            else:
                try:
                    self._tmnf_program = (
                        program if is_tmnf(program) else to_tmnf(program)
                    )
                except TMNFRewriteError:
                    self._tmnf_program = None
            self.uses_ground_pipeline = self._tmnf_program is not None
        if self._tmnf_program is None:
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
        if self.uses_ground_pipeline:
            truth = self._evaluate_ground(document)
            result: Dict[str, List[Node]] = {}
            for predicate in self.program.query_predicates:
                indexes = sorted(
                    index for (name, index) in truth if name == predicate
                )
                result[predicate] = [document.node_at(index) for index in indexes]
            return result
        return self._evaluate_generic(document)

    def select(self, document: Document, predicate: str) -> List[Node]:
        """The nodes selected by one unary predicate, in document order.

        Any predicate the program derives is selectable — query predicates
        and auxiliary IDB predicates alike — mirroring
        :meth:`~repro.datalog.engine.EvaluationResult.query`, whose fixpoint
        also contains the auxiliary relations.  A predicate the program
        never defines yields ``[]`` rather than an error: the stack-wide
        unknown-predicate contract (see docs/API.md) is lenient at query
        time and strict only at declaration time
        (``MonadicProgram(query_predicates=...)``).
        """
        if predicate in self.program.query_predicates:
            return self.evaluate(document).get(predicate, [])
        return self._select_indexes(document, predicate)

    def _select_indexes(self, document: Document, predicate: str) -> List[Node]:
        """Resolve one non-query predicate through whichever pipeline runs.

        Only *unary* extensions select nodes — the ground pipeline never
        derives anything else, and the generic engine's fixpoint also
        carries the binary tree relations, which must not leak out as
        (duplicated) first components.  Both pipelines therefore agree:
        binary and unknown predicates alike come back empty.
        """
        if self.uses_ground_pipeline:
            truth = self._evaluate_ground(document)
            indexes = sorted(index for (name, index) in truth if name == predicate)
        else:
            assert self._generic_engine is not None
            derived = self._generic_engine.fixpoint(tree_database(document))
            indexes = sorted(
                value[0] for value in derived.query(predicate) if len(value) == 1
            )
        return [document.node_at(index) for index in indexes]

    # ------------------------------------------------------------------
    # Grounding pipeline (Theorem 2.4)
    # ------------------------------------------------------------------
    def _evaluate_ground(self, document: Document) -> FrozenSet[GroundAtom]:
        assert self._tmnf_program is not None
        # The fingerprint is exact (labels + shape determine every tau_ur
        # relation), so equal-but-distinct documents share one grounding and
        # solve; document mutations change the fingerprint and re-evaluate.
        fingerprint = tree_fingerprint(document)
        cached = self._ground_cache.get(fingerprint)
        if cached is not None:
            return cached
        solver = GroundHornSolver()
        self._add_edb_facts(document, solver)
        for rule in self._tmnf_program.rules:
            self._ground_rule(rule, document, solver)
        truth = frozenset(solver.solve())  # type: ignore[arg-type]
        self._ground_cache.put(fingerprint, truth)
        return truth

    def _add_edb_facts(self, document: Document, solver: GroundHornSolver) -> None:
        for node in document:
            index = node.preorder_index
            solver.add_fact((label_predicate(node.label), index))
            if node.is_root:
                solver.add_fact(("root", index))
            if node.is_leaf:
                solver.add_fact(("leaf", index))
            if node.is_last_sibling:
                solver.add_fact(("lastsibling", index))
            if node.is_first_sibling:
                solver.add_fact(("firstsibling", index))

    def _ground_rule(
        self, rule: Rule, document: Document, solver: GroundHornSolver
    ) -> None:
        form = rule_tmnf_form(rule)
        head_predicate = rule.head.predicate
        head_variable = rule.head.terms[0]
        if form == 1:
            body_predicate = rule.body[0].atom.predicate
            for node in document:
                index = node.preorder_index
                solver.add_rule((head_predicate, index), ((body_predicate, index),))
            return
        if form == 3:
            first, second = (literal.atom.predicate for literal in rule.body)
            for node in document:
                index = node.preorder_index
                solver.add_rule(
                    (head_predicate, index), ((first, index), (second, index))
                )
            return
        if form == 2:
            unary_atom = next(l.atom for l in rule.body if l.atom.arity == 1)
            binary_atom = next(l.atom for l in rule.body if l.atom.arity == 2)
            body_predicate = unary_atom.predicate
            relation = binary_atom.predicate
            source_variable = unary_atom.terms[0]
            # Orientation: the rule is  p(x) <- p0(x0), B(a, b)  with
            # {a, b} == {x0, x}.  Enumerate the pairs of B and instantiate.
            for parent, child in self._relation_pairs(relation, document):
                assignment: Dict[Variable, int] = {
                    binary_atom.terms[0]: parent.preorder_index,  # type: ignore[index]
                    binary_atom.terms[1]: child.preorder_index,  # type: ignore[index]
                }
                head_index = assignment[head_variable]  # type: ignore[index]
                body_index = assignment[source_variable]  # type: ignore[index]
                solver.add_rule(
                    (head_predicate, head_index), ((body_predicate, body_index),)
                )
            return
        raise TMNFRewriteError(f"rule {rule} is not in TMNF")  # pragma: no cover

    @staticmethod
    def _relation_pairs(
        relation: str, document: Document
    ) -> Iterable[Tuple[Node, Node]]:
        if relation == "firstchild":
            return document.firstchild_pairs()
        if relation == "nextsibling":
            return document.nextsibling_pairs()
        if relation == "lastchild":
            return (
                (node, node.children[-1]) for node in document if node.children
            )
        if relation == "child":
            return document.child_pairs()
        raise TMNFRewriteError(f"unsupported binary relation {relation!r}")

    # ------------------------------------------------------------------
    # Generic fallback
    # ------------------------------------------------------------------
    def _evaluate_generic(self, document: Document) -> Dict[str, List[Node]]:
        assert self._generic_engine is not None
        # The tree database is rebuilt per call (O(|dom|)) so document
        # mutations are always observed; fixpoint() memoises per database
        # CONTENT in an LRU, so repeated select() calls against a working
        # set of hot documents all evaluate once.
        database = tree_database(document)
        derived = self._generic_engine.fixpoint(database)
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
