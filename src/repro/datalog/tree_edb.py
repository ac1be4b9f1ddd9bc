"""The tau_ur extensional database of a document tree.

Section 2.2 defines the relational structure

    t_ur = <dom, root, leaf, (label_a)_{a in Sigma},
            firstchild, nextsibling, lastsibling>

This module materialises those relations (plus the commonly used ``child``
relation and the derived ``firstsibling`` unary relation mentioned in
Section 4) whose domain elements are the document's preorder indexes.
Keeping the domain integral makes facts hashable and keeps the generic
engine fast.

Every relation is determined by node labels plus tree shape, i.e. by
:func:`tree_fingerprint`.  A built :class:`~repro.tree.document.Document`
never changes, so :func:`document_key` computes its fingerprint once, on
first use, and keeps the key on the document; every cache that keys a
document reads that key.  Two views of the relations exist:

* :class:`TreeRelations` — the engine's view: one relation at a time, built
  straight from the fingerprint as a duplicate-free row list, only when
  asked for.  ``SemiNaiveEngine.fixpoint(document)`` builds the relations
  its program mentions and answers the others on demand.
* :func:`tree_database` — the whole signature as a ``{predicate: set}``
  database, for callers that want a plain datalog database.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..tree.document import Document
from ..tree.node import Node
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
    names: Set[str] = set(TAU_UR_UNARY + TAU_UR_BINARY + EXTENDED_BINARY)
    for label in document.labels():
        names.add(label_predicate(label))
    return frozenset(names)


def tree_database(document: Document) -> Database:
    """Materialise the tau_ur relations of ``document`` as a datalog database.

    Domain elements are preorder indexes (ints); use
    :func:`nodes_for_indexes` to map query answers back to nodes.
    """
    database: Database = {
        name: set() for name in TAU_UR_UNARY + TAU_UR_BINARY + EXTENDED_BINARY
    }

    label_relations: Dict[str, Set[Tuple[object, ...]]] = {}

    for node in document:
        index = node.preorder_index
        label_relation = label_relations.setdefault(label_predicate(node.label), set())
        label_relation.add((index,))
        if node.is_root:
            database["root"].add((index,))
        if node.is_leaf:
            database["leaf"].add((index,))
        if node.is_last_sibling:
            database["lastsibling"].add((index,))
        if node.is_first_sibling:
            database["firstsibling"].add((index,))
        if node.children:
            database["firstchild"].add((index, node.children[0].preorder_index))
            database["lastchild"].add((index, node.children[-1].preorder_index))
            for child in node.children:
                database["child"].add((index, child.preorder_index))
        sibling = node.next_sibling
        if sibling is not None:
            database["nextsibling"].add((index, sibling.preorder_index))

    database.update(label_relations)
    return database


#: ``(labels, parents)``: the label of each node in preorder, and the
#: preorder index of each node's parent (``-1`` for the root) as the bytes
#: of an ``array("i")``.
Fingerprint = Tuple[Tuple[str, ...], bytes]


def tree_fingerprint(document: Document) -> Fingerprint:
    """An exact content fingerprint of the tau_ur view of ``document``.

    Every tau_ur relation is determined by node labels plus tree shape, and
    the shape is fully determined by the preorder sequence of parent
    preorder indexes (siblings appear in order in a preorder traversal).
    Equal fingerprints therefore mean equal :func:`tree_database`
    contents.  The two columns take about 12 bytes per node (a pointer to
    a shared label string and a 4-byte parent), and a document keeps its
    key for life.  An O(|dom|) walk: caches key documents through
    :func:`document_key`, which calls it once per document.
    """
    nodes = document.dom
    parents = array(
        "i",
        [node.parent.preorder_index if node.parent is not None else -1 for node in nodes],
    )
    return tuple([node.label for node in nodes]), parents.tobytes()


def document_key(document: Document) -> ContentKey:
    """The cache key of ``document``: a :class:`ContentKey` over its
    :func:`tree_fingerprint`, built on first use and kept on the document.

    The semi-naive fixpoint LRU and the monadic truth-table LRU both key
    documents by it.  A repeat lookup with the same document hashes nothing
    and matches the stored key by identity; an equal but distinct document
    builds an equal key and hits by exact ``==``.  A racing first use
    builds two equal keys, which is harmless, so no lock is taken.
    """
    key = document._cache_key
    if key is None:
        key = document._cache_key = ContentKey(tree_fingerprint(document))
    return key


_FIXED_RELATIONS = frozenset(TAU_UR_UNARY + TAU_UR_BINARY + EXTENDED_BINARY)


class TreeRelations:
    """The tau_ur relations of one tree, built per relation from its fingerprint.

    ``labels`` and ``parents`` are the fingerprint's two columns, indexed
    by preorder id (``parents`` unpacked into an ``array("i")``).
    :meth:`rows` returns a fresh duplicate-free row list (facts are tuples
    of preorder ids, as in :func:`tree_database`), so the engine adopts it
    as a relation's row array without interning.  Nothing is built until a
    relation is asked for; the sibling arrays are computed once, on first
    need.  Instances are immutable in content and safe to share between
    threads (a racing first use computes equal arrays twice).
    """

    __slots__ = ("labels", "parents", "_distinct_labels", "_functions")

    def __init__(self, fingerprint: Fingerprint) -> None:
        self.labels, parents = fingerprint
        self.parents = array("i", parents)
        self._distinct_labels: Optional[FrozenSet[str]] = None
        self._functions: Optional[Tuple[List[int], List[int], List[int]]] = None

    def names(self) -> FrozenSet[str]:
        """Every relation of the signature: the fixed ones (also when empty)
        and ``label_a`` for each label ``a`` that occurs — the keys of
        :func:`tree_database`."""
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
        first, following, last = self.sibling_functions()
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

    def sibling_functions(self) -> Tuple[List[int], List[int], List[int]]:
        """firstchild, nextsibling and lastchild as int arrays over preorder
        ids, computed once.

        One pass over the preorder parent column: siblings arrive in
        order.  Where a function is undefined it maps to the sentinel ``n``
        (one past the last node).
        """
        functions = self._functions
        if functions is None:
            n = len(self.labels)
            first, following, last = [n] * n, [n] * n, [n] * n
            for node, parent in enumerate(self.parents):
                if parent >= 0:
                    previous = last[parent]
                    if previous == n:
                        first[parent] = node
                    else:
                        following[previous] = node
                    last[parent] = node
            functions = self._functions = (first, following, last)
        return functions


def nodes_for_indexes(document: Document, indexes) -> List[Node]:
    """Map an iterable of preorder indexes (or 1-tuples) back to nodes."""
    result: List[Node] = []
    for item in indexes:
        if isinstance(item, tuple):
            item = item[0]
        result.append(document.node_at(item))
    result.sort(key=lambda node: node.preorder_index)
    return result

