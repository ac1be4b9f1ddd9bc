"""Unranked ordered labelled trees: the tau_ur substrate of the paper.

Public API
----------
* :class:`Node`, :class:`Document` — the tree model.
* :func:`tree`, :class:`TreeBuilder`, :func:`random_tree` — construction.
* :mod:`repro.tree.axes` — axis relations (child*, following, ...).
* :mod:`repro.tree.encoding` — firstchild/nextsibling binary encoding.
* :mod:`repro.tree.serialize` — s-expression / dict / outline serialisation.
"""

from .axes import axis_iterator, holds
from .builder import TreeBuilder, figure1_tree, random_tree, tree
from .document import Document, common_ancestor, nodes_between, subtree_nodes
from .encoding import BinaryNode, decode, encode
from .node import Node, element, text_node
from .serialize import from_dict, to_dict, to_outline, to_sexpr

__all__ = [
    "BinaryNode",
    "Document",
    "Node",
    "TreeBuilder",
    "axis_iterator",
    "common_ancestor",
    "decode",
    "element",
    "encode",
    "figure1_tree",
    "from_dict",
    "holds",
    "nodes_between",
    "random_tree",
    "subtree_nodes",
    "text_node",
    "to_dict",
    "to_outline",
    "to_sexpr",
    "tree",
]
