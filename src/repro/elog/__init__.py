"""Elog: the internal wrapper language of Lixto, and its interpreter."""

from .ast import (
    ROOT_PATTERN,
    AfterCondition,
    BeforeCondition,
    ComparisonCondition,
    ConceptCondition,
    ContainsCondition,
    DocumentSource,
    ElogProgram,
    ElogRule,
    FirstSubtreeCondition,
    PatternReference,
    SubAtt,
    SubElem,
    SubSequence,
    SubText,
)
from .concepts import DEFAULT_CONCEPTS, ConceptRegistry, parse_date, parse_number
from .conditions import ConditionContext, evaluate_condition
from .epath import AttributeCondition, ElementPath, EPathSyntaxError
from .extractor import (
    ExtractionError,
    Extractor,
    Fetcher,
    Page,
    wrapper_fingerprint,
)
from .figure5 import FIGURE5_TEXT, figure5_program, figure5_program_programmatic
from .instance_base import PatternInstance, PatternInstanceBase
from .parser import ElogSyntaxError, parse_elog, parse_rule
from .textpath import AttributePath, TextPath
from .to_mdatalog import ElogTranslationError, pattern_predicate, to_monadic_datalog

__all__ = [
    "AfterCondition",
    "AttributeCondition",
    "AttributePath",
    "BeforeCondition",
    "ComparisonCondition",
    "ConceptCondition",
    "ConceptRegistry",
    "ConditionContext",
    "ContainsCondition",
    "DEFAULT_CONCEPTS",
    "DocumentSource",
    "ElementPath",
    "ElogProgram",
    "ElogRule",
    "ElogSyntaxError",
    "ElogTranslationError",
    "EPathSyntaxError",
    "ExtractionError",
    "Extractor",
    "FIGURE5_TEXT",
    "Fetcher",
    "Page",
    "FirstSubtreeCondition",
    "PatternInstance",
    "PatternInstanceBase",
    "PatternReference",
    "ROOT_PATTERN",
    "SubAtt",
    "SubElem",
    "SubSequence",
    "SubText",
    "TextPath",
    "evaluate_condition",
    "figure5_program",
    "figure5_program_programmatic",
    "parse_date",
    "parse_elog",
    "parse_number",
    "parse_rule",
    "pattern_predicate",
    "to_monadic_datalog",
    "wrapper_fingerprint",
]
