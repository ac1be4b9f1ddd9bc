"""Reference oracle: the tau_ur database of a document, by a node walk.

The tree suites check :mod:`repro.datalog.tree_edb` against this function.
It reads each relation of Section 2.2 straight off the node objects
(``is_leaf``, ``children``, ``next_sibling``, ...) and shares nothing with
the library's column encoding: no preorder parent column, no sentinel, no
step functions.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.datalog.ast import Database
from repro.datalog.tree_edb import (
    EXTENDED_BINARY,
    TAU_UR_BINARY,
    TAU_UR_UNARY,
    label_predicate,
)
from repro.tree.document import Document


def tree_database(document: Document) -> Database:
    """Materialise the tau_ur relations of ``document`` as a datalog database.

    Domain elements are preorder indexes (ints).
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
