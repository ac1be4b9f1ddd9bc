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
:func:`tree_fingerprint`.  Two views exist:

* :class:`TreeRelations` — the engine's view: one relation at a time, built
  straight from the fingerprint as a duplicate-free row list, only when
  asked for.  ``SemiNaiveEngine.fixpoint(document)`` builds the relations
  its program mentions and answers the others on demand.
* :func:`tree_database` — the whole signature as a ``{predicate: set}``
  database, for callers that want a plain datalog database.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..tree.document import Document
from ..tree.node import Node
from .ast import Database

# Relation names of the tau_ur signature (label relations are "label_<a>").
TAU_UR_UNARY = ("root", "leaf", "lastsibling", "firstsibling")
TAU_UR_BINARY = ("firstchild", "nextsibling", "lastchild")
EXTENDED_BINARY = ("child",)


def label_predicate(label: str) -> str:
    """The EDB predicate name for label ``a`` (``label_a`` in the paper)."""
    return f"label_{label}"


def tree_signature(document: Document, include_child: bool = True) -> FrozenSet[str]:
    """The EDB predicate names available for ``document``."""
    names: Set[str] = set(TAU_UR_UNARY) | set(TAU_UR_BINARY)
    if include_child:
        names |= set(EXTENDED_BINARY)
    for label in document.labels():
        names.add(label_predicate(label))
    return frozenset(names)


def tree_database(document: Document, include_child: bool = True) -> Database:
    """Materialise the tau_ur relations of ``document`` as a datalog database.

    Domain elements are preorder indexes (ints); use
    :func:`nodes_for_indexes` to map query answers back to nodes.
    """
    database: Database = {name: set() for name in TAU_UR_UNARY + TAU_UR_BINARY}
    if include_child:
        database["child"] = set()

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
            if include_child:
                for child in node.children:
                    database["child"].add((index, child.preorder_index))
        sibling = node.next_sibling
        if sibling is not None:
            database["nextsibling"].add((index, sibling.preorder_index))

    database.update(label_relations)
    return database


Fingerprint = Tuple[Tuple[str, int], ...]


def tree_fingerprint(document: Document) -> Fingerprint:
    """An exact content fingerprint of the tau_ur view of ``document``.

    Every tau_ur relation is determined by node labels plus tree shape, and
    the shape is fully determined by the preorder sequence of
    ``(label, parent preorder index)`` pairs (siblings appear in order in a
    preorder traversal).  Equal fingerprints therefore mean equal
    :func:`tree_database` contents — the key both the semi-naive fixpoint
    cache and the monadic pipeline's truth-table LRU use for documents, so
    equal-but-distinct documents hit.
    """
    return tuple(
        (
            node.label,
            node.parent.preorder_index if node.parent is not None else -1,
        )
        for node in document
    )


_FIXED_RELATIONS = frozenset(TAU_UR_UNARY + TAU_UR_BINARY + EXTENDED_BINARY)


class TreeRelations:
    """The tau_ur relations of one tree, built per relation from its fingerprint.

    :meth:`rows` returns a fresh duplicate-free row list (facts are tuples
    of preorder ids, as in :func:`tree_database`), so the engine adopts it
    as a relation's row array without interning.  Nothing is built until a
    relation is asked for; the sibling arrays are computed once, on first
    need.  Instances are immutable in content and safe to share between
    threads (a racing first use computes equal arrays twice).
    """

    __slots__ = ("fingerprint", "_labels", "_functions")

    def __init__(self, fingerprint: Fingerprint) -> None:
        self.fingerprint = fingerprint
        self._labels: Optional[FrozenSet[str]] = None
        self._functions: Optional[Tuple[List[int], List[int], List[int]]] = None

    def names(self) -> FrozenSet[str]:
        """Every relation of the signature: the fixed ones (also when empty)
        and ``label_a`` for each label ``a`` that occurs — the keys of
        :func:`tree_database`."""
        return _FIXED_RELATIONS | {label_predicate(label) for label in self._label_set()}

    def rows(self, predicate: str) -> Optional[List[Tuple[object, ...]]]:
        """The facts of ``predicate``, or ``None`` when it is not a relation
        of this tree (another name, or the label of no node)."""
        fingerprint = self.fingerprint
        n = len(fingerprint)
        if predicate.startswith("label_"):
            label = predicate[len("label_"):]
            if label not in self._label_set():
                return None
            return [(node,) for node, (name, _) in enumerate(fingerprint) if name == label]
        if predicate not in _FIXED_RELATIONS:
            return None
        if predicate == "root":
            return [(0,)] if n else []
        if predicate == "child":
            return [
                (parent, node) for node, (_, parent) in enumerate(fingerprint) if parent >= 0
            ]
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
        labels = self._labels
        if labels is None:
            labels = self._labels = frozenset(label for label, _ in self.fingerprint)
        return labels

    def sibling_functions(self) -> Tuple[List[int], List[int], List[int]]:
        """firstchild, nextsibling and lastchild as int arrays over preorder
        ids, computed once.

        One pass over the preorder ``(label, parent)`` fingerprint: siblings
        arrive in order.  Where a function is undefined it maps to the
        sentinel ``n`` (one past the last node).
        """
        functions = self._functions
        if functions is None:
            fingerprint = self.fingerprint
            n = len(fingerprint)
            first, following, last = [n] * n, [n] * n, [n] * n
            for node, (_, parent) in enumerate(fingerprint):
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


def indexes_for_nodes(nodes) -> Set[int]:
    return {node.preorder_index for node in nodes}
