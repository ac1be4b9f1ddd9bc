"""Uniform result wrappers: one interface over every evaluation layer.

Before the façade, each layer returned a different shape — the datalog
engine a frozenset of fact tuples, the monadic evaluator a ``{predicate:
[Node]}`` mapping, the Elog extractor a
:class:`~repro.elog.instance_base.PatternInstanceBase` forest — and every
consumer re-invented the conversions between them.  :class:`QueryResult`
(and its extraction specialisation :class:`ExtractionResult`) expose all
three through one vocabulary of lazily materialised, memoised views:

``predicates()``
    The names with any matches (datalog predicates, monadic query
    predicates, Elog patterns).
``tuples(name)``
    The relational view: raw fact tuples for datalog, ``(preorder_index,)``
    singletons for node selections, ``(anchor, sub-anchor, text)`` triples
    for extracted pattern instances.
``nodes(name)``
    The matched document nodes in document order (empty when no document
    is attached or the matches are strings).
``texts(name)``
    The textual view in document order.

Every view is built on first access and memoised, so consuming a large
result through one view never pays for the others.

Unknown-predicate contract (uniform across the stack, see docs/API.md):
asking any view about a name the program never defines returns an *empty*
view — never an error.  Strictness lives at declaration time
(``MonadicProgram(query_predicates=...)`` rejects undefined predicates).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..datalog.engine import EvaluationResult
from ..elog.instance_base import PatternInstance, PatternInstanceBase
from ..tree.document import Document
from ..tree.node import Node
from ..xmlgen.document import XmlElement

FactTuple = Tuple[object, ...]

_EMPTY_TUPLES: FrozenSet[FactTuple] = frozenset()


class QueryResult:
    """One uniform, lazily-memoised view over an evaluation result.

    Subclasses adapt one producer each (datalog facts, monadic node
    selections, Elog instance bases); consumers only ever see this
    interface.  Views are immutable and shared between calls.
    """

    __slots__ = ("backend", "_memo")

    def __init__(self, backend: str) -> None:
        self.backend = backend
        self._memo: Dict[Tuple[str, str], object] = {}

    # -- the uniform interface --------------------------------------------
    @property
    def ok(self) -> bool:
        """``True``: this slot evaluated successfully.  The batch paths'
        ``on_error="collect"`` mode mixes in
        :class:`~repro.resilience.policy.ErrorResult` slots whose ``ok`` is
        ``False``, so mixed lists filter uniformly
        (``[r for r in results if r.ok]``)."""
        return True

    def predicates(self) -> FrozenSet[str]:
        """The result's *primary* names with at least one match: derived
        relations (datalog), declared query predicates (selections),
        patterns (extraction).  Membership (``name in result``) is wider —
        it tests whether *any* view of ``name`` has matches, including
        lazily-resolved auxiliary predicates."""
        raise NotImplementedError

    def tuples(self, predicate: str) -> FrozenSet[FactTuple]:
        """The relational view of ``predicate`` (empty when unknown)."""
        return self._view("tuples", predicate, self._tuples)

    def nodes(self, predicate: str) -> Tuple[Node, ...]:
        """The matched nodes in document order (empty when unknown)."""
        return self._view("nodes", predicate, self._nodes)

    def texts(self, predicate: str) -> Tuple[str, ...]:
        """The textual matches in document order (empty when unknown)."""
        return self._view("texts", predicate, self._texts)

    def count(self, predicate: str) -> int:
        return len(self.tuples(predicate))

    def __contains__(self, predicate: str) -> bool:
        # Count-based, not predicates()-based: auxiliary predicates that a
        # resolver answers non-empty must test True uniformly across
        # adapters (the guard idiom is `if name in result: result.nodes(name)`).
        return self.count(predicate) > 0

    # -- adapter hooks -----------------------------------------------------
    def _tuples(self, predicate: str) -> FrozenSet[FactTuple]:
        raise NotImplementedError

    def _nodes(self, predicate: str) -> Tuple[Node, ...]:
        raise NotImplementedError

    def _texts(self, predicate: str) -> Tuple[str, ...]:
        raise NotImplementedError

    def _view(self, kind: str, predicate: str, build: Callable):
        key = (kind, predicate)
        if key not in self._memo:
            self._memo[key] = build(predicate)
        return self._memo[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(sorted(self.predicates()))
        return f"{type(self).__name__}({self.backend}: {names})"


class FactsResult(QueryResult):
    """Datalog fixpoints (:class:`~repro.datalog.engine.EvaluationResult`).

    When the fixpoint was computed over a document (its tau_ur relations,
    whose domain is preorder indexes), attach the document so unary
    integer facts resolve to nodes.
    """

    __slots__ = ("evaluation", "document")

    def __init__(
        self,
        evaluation: EvaluationResult,
        document: Optional[Document] = None,
        backend: str = "semi-naive",
    ) -> None:
        super().__init__(backend)
        self.evaluation = evaluation
        self.document = document

    def predicates(self) -> FrozenSet[str]:
        # "Has at least one match" uniformly across adapters: relations the
        # fixpoint mentions but leaves empty do not count.  Counted, not
        # frozen: only the predicates a caller reads get a frozenset.
        evaluation = self.evaluation
        return frozenset(
            predicate
            for predicate in evaluation.predicates()
            if evaluation.count(predicate)
        )

    def _tuples(self, predicate: str) -> FrozenSet[FactTuple]:
        return self.evaluation.query(predicate)

    def count(self, predicate: str) -> int:
        return self.evaluation.count(predicate)

    def _node_indexes(self, predicate: str) -> List[int]:
        document = self.document
        if document is None:
            return []
        size = len(document)
        return sorted(
            fact[0]
            for fact in self.evaluation.query(predicate)
            if len(fact) == 1 and isinstance(fact[0], int) and 0 <= fact[0] < size
        )

    def _nodes(self, predicate: str) -> Tuple[Node, ...]:
        if self.document is None:
            return ()
        return tuple(
            self.document.node_at(index) for index in self._node_indexes(predicate)
        )

    def _texts(self, predicate: str) -> Tuple[str, ...]:
        if self.document is not None:
            return tuple(node.normalized_text() for node in self.nodes(predicate))
        # No document: a deterministic textual rendering of the raw facts.
        facts = sorted(self.evaluation.query(predicate), key=repr)
        return tuple(" ".join(str(value) for value in fact) for fact in facts)


class SelectionResult(QueryResult):
    """Monadic / automata node selections (``{predicate: [Node]}``).

    ``resolver`` (when given) lazily answers predicates outside the initial
    mapping — the evaluator's auxiliary IDB predicates — through
    :meth:`MonadicTreeEvaluator.select`; truly unknown predicates come back
    empty from there as well.
    """

    __slots__ = ("selection", "document", "_resolver")

    def __init__(
        self,
        selection: Mapping[str, List[Node]],
        document: Document,
        resolver: Optional[Callable[[Document, str], List[Node]]] = None,
        backend: str = "monadic",
    ) -> None:
        super().__init__(backend)
        self.selection = dict(selection)
        self.document = document
        self._resolver = resolver

    def predicates(self) -> FrozenSet[str]:
        return frozenset(
            name for name, nodes in self.selection.items() if nodes
        )

    def _nodes(self, predicate: str) -> Tuple[Node, ...]:
        found = self.selection.get(predicate)
        if found is None and self._resolver is not None:
            found = self._resolver(self.document, predicate)
        return tuple(found or ())

    def _tuples(self, predicate: str) -> FrozenSet[FactTuple]:
        return frozenset((node.preorder_index,) for node in self.nodes(predicate))

    def _texts(self, predicate: str) -> Tuple[str, ...]:
        return tuple(node.normalized_text() for node in self.nodes(predicate))


class ExtractionResult(QueryResult):
    """Elog extraction output (a :class:`PatternInstanceBase` forest).

    Adds the extraction-specific surface on top of the uniform views: the
    hierarchical ``instances(pattern)``, the XML Designer step
    (:meth:`to_xml`), and the underlying ``instance_base``.  The relational
    ``tuples`` view renders each instance as ``(anchor, sub-anchor, text)``
    where the anchor pair approximates document order
    (:meth:`PatternInstance.anchor`).
    """

    __slots__ = ("instance_base", "auxiliary")

    def __init__(
        self,
        instance_base: PatternInstanceBase,
        auxiliary: Iterable[str] = (),
        backend: str = "elog",
    ) -> None:
        super().__init__(backend)
        self.instance_base = instance_base
        self.auxiliary = tuple(auxiliary)

    # -- uniform views ------------------------------------------------------
    def predicates(self) -> FrozenSet[str]:
        return frozenset(self.instance_base.patterns())

    def patterns(self) -> FrozenSet[str]:
        """Alias of :meth:`predicates` in extraction vocabulary."""
        return self.predicates()

    def _nodes(self, predicate: str) -> Tuple[Node, ...]:
        return tuple(self.instance_base.nodes_of(predicate))

    def _texts(self, predicate: str) -> Tuple[str, ...]:
        return tuple(self.instance_base.values_of(predicate))

    def _tuples(self, predicate: str) -> FrozenSet[FactTuple]:
        return frozenset(
            instance.anchor() + (instance.text(),)
            for instance in self.instance_base.instances_of(predicate)
        )

    def count(self, predicate: Optional[str] = None) -> int:
        if predicate is None:
            return self.instance_base.count()
        return self.instance_base.count(predicate)

    # -- extraction-specific surface ---------------------------------------
    def instances(self, pattern: str) -> List[PatternInstance]:
        """The hierarchical pattern instances, in document order."""
        return self.instance_base.instances_of(pattern)

    def to_xml(
        self,
        root_name: str = "result",
        auxiliary: Optional[Iterable[str]] = None,
    ) -> XmlElement:
        """The XML Designer / Transformer step over the instance base.

        ``auxiliary`` defaults to the wrapper program's auxiliary patterns
        (recorded at extraction time by :meth:`repro.api.Session.extract`).
        """
        return self.instance_base.to_xml(
            root_name=root_name,
            auxiliary=self.auxiliary if auxiliary is None else auxiliary,
        )
