"""Monadic datalog over trees: the theoretical core of the Lixto framework."""

from .evaluator import MonadicTreeEvaluator, evaluate, select
from .program import MonadicityError, MonadicProgram, italic_program
from .tmnf import TMNFRewriteError, is_tmnf, rule_tmnf_form, to_tmnf
from .wrap import assignment_from_queries, wrap_tree

__all__ = [
    "MonadicProgram",
    "MonadicTreeEvaluator",
    "MonadicityError",
    "TMNFRewriteError",
    "assignment_from_queries",
    "evaluate",
    "is_tmnf",
    "italic_program",
    "rule_tmnf_form",
    "select",
    "to_tmnf",
    "wrap_tree",
]
