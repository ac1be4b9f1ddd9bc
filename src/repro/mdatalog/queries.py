"""Unary queries and information extraction functions.

Section 2.1: the core notion of the paper's wrapping framework is the
*information extraction function* — a function that maps a labelled unranked
tree to a subset of its nodes.  A wrapper implements one or several such
functions.  Here each query predicate of a monadic datalog program is one:
a callable from a document to its selected nodes in document order.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..tree.document import Document
from ..tree.node import Node
from .evaluator import MonadicTreeEvaluator
from .program import MonadicProgram


class UnaryQuery:
    """A named unary query over documents.

    Wraps a callable ``document -> list of nodes`` and answers in document
    order.
    """

    def __init__(self, name: str, function: Callable[[Document], List[Node]]) -> None:
        self.name = name
        self._function = function

    def __call__(self, document: Document) -> List[Node]:
        nodes = list(self._function(document))
        nodes.sort(key=lambda node: node.preorder_index)
        return nodes

    def __repr__(self) -> str:  # pragma: no cover
        return f"UnaryQuery({self.name!r})"


class InformationExtractionFunction(UnaryQuery):
    """A unary query defined by a predicate of a monadic datalog program."""

    def __init__(self, program: MonadicProgram, predicate: str) -> None:
        if predicate not in program.query_predicates:
            raise ValueError(
                f"{predicate!r} is not a query predicate of the program "
                f"(available: {sorted(program.query_predicates)})"
            )
        self.program = program
        self.predicate = predicate
        evaluator = MonadicTreeEvaluator(program)
        super().__init__(predicate, lambda document: evaluator.select(document, predicate))


def extraction_functions(program: MonadicProgram) -> Dict[str, InformationExtractionFunction]:
    """All information extraction functions defined by ``program``."""
    return {
        predicate: InformationExtractionFunction(program, predicate)
        for predicate in sorted(program.query_predicates)
    }
