"""The tau_ur extensional database of a document tree.

Section 2.2 defines the relational structure

    t_ur = <dom, root, leaf, (label_a)_{a in Sigma},
            firstchild, nextsibling, lastsibling>

This module owns its one encoding, :class:`TreeRelations`: the domain is
the document's preorder indexes, and every relation (plus the commonly
used ``child`` relation and the derived ``firstsibling`` unary relation
mentioned in Section 4) is built from two columns, the labels and the
parents in preorder.  Keeping the domain integral makes facts hashable and
keeps the generic engine fast.

A built :class:`~repro.tree.document.Document` never changes, so
:func:`document_key` builds its ``TreeRelations`` once, on first use, and
keeps it on the document as the content of its cache key.  Every evaluator
reads that object: ``SemiNaiveEngine.fixpoint(document)`` builds the
relations its program mentions and answers the others on demand, the
monadic evaluator steps along its six tree functions, and
:func:`tree_database` copies the whole signature into a ``{predicate:
set}`` database for callers that want a plain datalog database.  The
functions are built once per document, however many evaluators miss on it.
"""

from __future__ import annotations

from array import array
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..tree.document import Document
from .ast import Database
from .cache import ContentKey

# Relation names of the tau_ur signature (label relations are "label_<a>").
TAU_UR_UNARY = ("root", "leaf", "lastsibling", "firstsibling")
TAU_UR_BINARY = ("firstchild", "nextsibling", "lastchild")
EXTENDED_BINARY = ("child",)


def label_predicate(label: str) -> str:
    """The EDB predicate name for label ``a`` (``label_a`` in the paper)."""
    return f"label_{label}"


def tree_signature(document: Document) -> FrozenSet[str]:
    """The EDB predicate names available for ``document``."""
    return document_key(document).content.names()


def tree_database(document: Document) -> Database:
    """Materialise the tau_ur relations of ``document`` as a datalog database.

    Domain elements are preorder indexes (ints): ``document.node_at(i)``
    maps an answer back to its node.
    """
    tree = document_key(document).content
    return {name: set(tree.rows(name) or ()) for name in tree.names()}


def tree_fingerprint(document: Document) -> TreeRelations:
    """The tau_ur structure of ``document``, an exact content fingerprint.

    Every tau_ur relation is determined by node labels plus tree shape, and
    the shape is fully determined by the preorder sequence of parent
    preorder indexes (siblings appear in order in a preorder traversal).
    Equal fingerprints therefore mean equal relations.  The two columns
    take about 12 bytes per node (a pointer to a shared label string and a
    4-byte parent).  An O(|dom|) walk: caches key documents through
    :func:`document_key`, which calls it once per document.
    """
    nodes = document.dom
    return TreeRelations(
        tuple([node.label for node in nodes]),
        array(
            "i",
            [node.parent.preorder_index if node.parent is not None else -1 for node in nodes],
        ),
    )


def document_key(document: Document) -> ContentKey:
    """The cache key of ``document``: a :class:`ContentKey` over its
    :func:`tree_fingerprint`, built on first use and kept on the document.

    The semi-naive fixpoint LRU and the monadic truth-table LRU both key
    documents by it, and both evaluate over its content.  A repeat lookup
    with the same document hashes nothing and matches the stored key by
    identity; an equal but distinct document builds an equal key and hits
    by exact ``==``.  A racing first use builds two equal keys, which is
    harmless, so no lock is taken.
    """
    key = document._cache_key
    if key is None:
        key = document._cache_key = ContentKey(tree_fingerprint(document))
    return key


_FIXED_RELATIONS = frozenset(TAU_UR_UNARY + TAU_UR_BINARY + EXTENDED_BINARY)

#: The tree functions of :meth:`TreeRelations.step_functions`, by step id.
StepFunctions = Tuple[Sequence[int], ...]


class TreeRelations:
    """The tau_ur relations of one tree, built per relation from two columns.

    ``labels`` and ``parents`` (an ``array("i")``, ``-1`` for the root)
    are indexed by preorder id; they are the whole content, compared
    exactly by ``==``.  :meth:`rows` returns a fresh duplicate-free row
    list (facts are tuples of preorder ids), so the engine adopts it as a
    relation's row array without interning.  Nothing is built until a
    relation is asked for; the tree functions are computed once, on first
    need.  Instances are immutable in content and safe to share between
    threads (a racing first use computes equal arrays twice).
    """

    __slots__ = ("labels", "parents", "_distinct_labels", "_functions")

    def __init__(self, labels: Tuple[str, ...], parents: array) -> None:
        self.labels = labels
        self.parents = parents
        self._distinct_labels: Optional[FrozenSet[str]] = None
        self._functions: Optional[StepFunctions] = None

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, TreeRelations)
            and self.labels == other.labels
            and self.parents == other.parents
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.parents.tobytes()))

    def names(self) -> FrozenSet[str]:
        """Every relation of the signature: the fixed ones (also when empty)
        and ``label_a`` for each label ``a`` that occurs."""
        return _FIXED_RELATIONS | {label_predicate(label) for label in self._label_set()}

    def rows(self, predicate: str) -> Optional[List[Tuple[object, ...]]]:
        """The facts of ``predicate``, or ``None`` when it is not a relation
        of this tree (another name, or the label of no node)."""
        n = len(self.labels)
        if predicate.startswith("label_"):
            label = predicate[len("label_"):]
            if label not in self._label_set():
                return None
            return [(node,) for node, name in enumerate(self.labels) if name == label]
        if predicate not in _FIXED_RELATIONS:
            return None
        if predicate == "root":
            return [(0,)] if n else []
        if predicate == "child":
            return [(parent, node) for node, parent in enumerate(self.parents) if parent >= 0]
        _, first, following, last = self.step_functions()[:4]
        if predicate == "leaf":
            return [(node,) for node, child in enumerate(first) if child == n]
        # The root is neither a first nor a last sibling: it has no parent.
        if predicate == "firstsibling":
            return [(child,) for child in first if child != n]
        if predicate == "lastsibling":
            return [(child,) for child in last if child != n]
        function = {"firstchild": first, "nextsibling": following, "lastchild": last}[
            predicate
        ]
        return [(node, image) for node, image in enumerate(function) if image != n]

    def _label_set(self) -> FrozenSet[str]:
        labels = self._distinct_labels
        if labels is None:
            labels = self._distinct_labels = frozenset(self.labels)
        return labels

    def step_functions(self) -> StepFunctions:
        """The identity, firstchild, nextsibling, lastchild and the inverses
        of the last three as int arrays over preorder ids, indexed by step
        id (0-6), computed once.

        One pass over the preorder parent column: siblings arrive in
        order.  Where a function is undefined it maps to the sentinel ``n``
        (one past the last node).  They are plain lists, not
        ``array("i")``: propagation indexes them once per step, and a list
        hands back its stored int where an array allocates one (4-17%
        faster propagation, for about 60 KB more per 900-node tree).
        """
        functions = self._functions
        if functions is None:
            n = len(self.labels)
            first, following, last = [n] * n, [n] * n, [n] * n
            up_first, up_following, up_last = [n] * n, [n] * n, [n] * n
            for node, parent in enumerate(self.parents):
                if parent >= 0:
                    previous = last[parent]
                    if previous == n:
                        first[parent] = node
                        up_first[node] = parent
                    else:
                        following[previous] = node
                        up_following[node] = previous
                    last[parent] = node
            for node, child in enumerate(last):
                if child != n:
                    up_last[child] = node
            functions = self._functions = (
                range(n), first, following, last, up_first, up_following, up_last
            )
        return functions
