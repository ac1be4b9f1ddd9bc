"""Unranked ordered labelled trees: the tau_ur substrate of the paper.

Public API
----------
* :class:`Node`, :class:`Document` — the tree model.
* :func:`tree`, :class:`TreeBuilder`, :func:`random_tree` — construction.
* :mod:`repro.tree.axes` — axis relations (child*, following, ...).
* :mod:`repro.tree.encoding` — firstchild/nextsibling binary encoding.
"""

from .axes import axis_iterator, holds
from .builder import TreeBuilder, figure1_tree, random_tree, tree
from .document import Document
from .encoding import BinaryNode, decode, encode
from .node import Node

__all__ = [
    "BinaryNode",
    "Document",
    "Node",
    "TreeBuilder",
    "axis_iterator",
    "decode",
    "encode",
    "figure1_tree",
    "holds",
    "random_tree",
    "tree",
]
