"""Monadic datalog over trees: the theoretical core of the Lixto framework."""

from .evaluator import MonadicTreeEvaluator, evaluate, select
from .program import MonadicityError, MonadicProgram, italic_program
from .queries import InformationExtractionFunction, UnaryQuery, extraction_functions
from .tmnf import TMNFRewriteError, is_tmnf, rule_tmnf_form, to_tmnf
from .wrap import assignment_from_queries, wrap_tree

__all__ = [
    "InformationExtractionFunction",
    "MonadicProgram",
    "MonadicTreeEvaluator",
    "MonadicityError",
    "TMNFRewriteError",
    "UnaryQuery",
    "assignment_from_queries",
    "evaluate",
    "extraction_functions",
    "is_tmnf",
    "italic_program",
    "rule_tmnf_form",
    "select",
    "to_tmnf",
    "wrap_tree",
]
