"""Conjunctive queries over trees and the [18] tractability dichotomy."""

from .acyclic import evaluate_acyclic, is_acyclic
from .ast import (
    CQ_AXES,
    TRACTABLE_AXIS_CLASSES,
    AxisAtom,
    ConjunctiveQuery,
    LabelAtom,
    query,
)
from .classify import Classification, classify, classify_axes
from .evaluator import (
    CQEvaluationError,
    boolean_answer,
    evaluate_backtracking,
    evaluate_filtered,
    unary_answers,
)
from .to_xpath import CQToXPathError, to_positive_core_xpath

__all__ = [
    "AxisAtom",
    "CQEvaluationError",
    "CQToXPathError",
    "CQ_AXES",
    "Classification",
    "ConjunctiveQuery",
    "LabelAtom",
    "TRACTABLE_AXIS_CLASSES",
    "boolean_answer",
    "classify",
    "classify_axes",
    "evaluate_acyclic",
    "evaluate_backtracking",
    "evaluate_filtered",
    "is_acyclic",
    "query",
    "to_positive_core_xpath",
    "unary_answers",
]
