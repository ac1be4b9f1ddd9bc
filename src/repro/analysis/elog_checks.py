"""Static checks over Elog wrapper programs: the ``E0xx`` rules.

An Elog wrapper fails quietly: a pattern whose parent chain never reaches
the document root simply extracts nothing, a misspelled pattern reference
parses as a condition that never holds, an unregistered concept never
accepts a value.  These checks surface those silent failure modes before
the extractor runs.  See docs/ANALYSIS.md for one example per rule.
"""

from __future__ import annotations

import difflib
import re
from typing import List, Optional, Set, Tuple

from ..datalog.ast import Span, get_span
from ..elog.ast import (
    ROOT_PATTERN,
    AfterCondition,
    BeforeCondition,
    ComparisonCondition,
    ConceptCondition,
    ContainsCondition,
    ElogProgram,
    ElogRule,
    PatternReference,
    SubElem,
    SubText,
)
from ..elog.concepts import DEFAULT_CONCEPTS, ConceptRegistry
from ..elog.epath import ElementPath
from .diagnostics import ERROR, WARNING, Diagnostic

#: Condition arguments that look like this are variables; anything else
#: (quoted strings, numbers, paths) is a literal and needs no binding.
_VARIABLE_PATTERN = re.compile(r"^[A-Z_][A-Za-z0-9_]*$")

#: ``\var[Y]`` markers capture matched text into ``Y`` where the extractor
#: binds them: in ``regvar`` attribute conditions (Figure 5's ``price``
#: rule) and in ``subtext`` string paths.
_VAR_MARKER_PATTERN = re.compile(r"\\var\[([A-Za-z_][A-Za-z0-9_]*)\]")


def _span(rule: ElogRule) -> Optional[Span]:
    return get_span(rule)


def _is_variable(argument: str) -> bool:
    return bool(_VARIABLE_PATTERN.match(argument)) and argument != "_"


def check_elog_program(
    program: ElogProgram,
    *,
    concepts: Optional[ConceptRegistry] = None,
) -> List[Diagnostic]:
    """All ``E0xx`` diagnostics for ``program``, in rule-id order.

    ``concepts`` is the registry the extractor will run with (defaults to
    :data:`~repro.elog.concepts.DEFAULT_CONCEPTS`); E005 checks concept
    atoms against it.
    """
    registry = concepts if concepts is not None else DEFAULT_CONCEPTS
    diagnostics: List[Diagnostic] = []
    defined = set(program.patterns())
    diagnostics.extend(_check_parents(program, defined))
    diagnostics.extend(_check_dead_patterns(program, defined))
    diagnostics.extend(_check_pattern_references(program, defined))
    diagnostics.extend(_check_condition_variables(program))
    diagnostics.extend(_check_concepts(program, registry))
    diagnostics.extend(_check_duplicates(program))
    diagnostics.sort(key=lambda d: (d.rule_id, d.span.line if d.span else 0))
    return diagnostics


def _check_parents(program: ElogProgram, defined: Set[str]) -> List[Diagnostic]:
    """E001: a rule hangs off a parent pattern no rule defines."""
    diagnostics: List[Diagnostic] = []
    known = sorted(defined | {ROOT_PATTERN})
    for rule in program.rules:
        if rule.is_document_rule():
            continue
        parent = rule.parent
        if parent in defined or parent == ROOT_PATTERN:
            continue
        suggestions = difflib.get_close_matches(parent, known, n=1)
        hint = f"; did you mean {suggestions[0]!r}?" if suggestions else ""
        diagnostics.append(
            Diagnostic(
                "E001",
                ERROR,
                f"rule for pattern {rule.pattern!r} references undefined "
                f"parent pattern {parent!r}{hint}",
                span=_span(rule),
                subject=rule.pattern,
            )
        )
    return diagnostics


def _check_dead_patterns(
    program: ElogProgram, defined: Set[str]
) -> List[Diagnostic]:
    """E002: patterns whose parent chain never reaches the document root.

    The pattern-instance base is built top-down (Section 3.1): a pattern
    with no grounded ancestor chain extracts nothing, silently.
    """
    grounded: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            if rule.pattern in grounded:
                continue
            if (
                rule.is_document_rule()
                or rule.parent == ROOT_PATTERN
                or rule.parent in grounded
            ):
                grounded.add(rule.pattern)
                changed = True
    diagnostics: List[Diagnostic] = []
    for pattern in program.patterns():
        if pattern in grounded:
            continue
        witness = program.rules_for(pattern)[0]
        diagnostics.append(
            Diagnostic(
                "E002",
                ERROR,
                f"pattern {pattern!r} is dead: no chain of parent patterns "
                "connects it to the document root, so it can never extract "
                "an instance",
                span=_span(witness),
                subject=pattern,
            )
        )
    return diagnostics


def _check_pattern_references(
    program: ElogProgram, defined: Set[str]
) -> List[Diagnostic]:
    """E003: a condition joins against a pattern no rule defines."""
    diagnostics: List[Diagnostic] = []
    known = sorted(defined | {ROOT_PATTERN})
    for rule in program.rules:
        for condition in rule.conditions:
            if not isinstance(condition, PatternReference):
                continue
            referenced = condition.pattern
            if referenced in defined or referenced == ROOT_PATTERN:
                continue
            suggestions = difflib.get_close_matches(referenced, known, n=1)
            hint = f"; did you mean {suggestions[0]!r}?" if suggestions else ""
            polarity = "never holds" if not condition.negated else "always holds"
            diagnostics.append(
                Diagnostic(
                    "E003",
                    ERROR,
                    f"condition {condition} in the rule for {rule.pattern!r} "
                    f"references undefined pattern {referenced!r} and thus "
                    f"{polarity}{hint}",
                    span=_span(rule),
                    subject=referenced,
                )
            )
    return diagnostics


def _bound_variables(rule: ElogRule) -> Set[str]:
    """Variables a rule binds: head variables, the extraction target,
    condition ``bind`` slots, positive pattern-reference arguments, and the
    ``\\var[...]`` markers the extractor binds: those of a ``subtext``
    path and of ``regvar`` attribute conditions in the extraction path or a
    positive context condition.  Markers elsewhere (an ``exact``,
    ``substr`` or ``regexp`` condition) only match text."""
    bound = {"S", "X"}
    extraction = rule.extraction
    if extraction is not None:
        target = getattr(extraction, "target", None)
        if target:
            bound.add(target)
        if isinstance(extraction, SubText):
            bound.update(_VAR_MARKER_PATTERN.findall(extraction.path.pattern_text))
        elif isinstance(extraction, SubElem):
            bound.update(_regvar_markers(extraction.path))
    for condition in rule.conditions:
        bind = getattr(condition, "bind", None)
        if bind:
            bound.add(bind)
        if isinstance(condition, PatternReference) and not condition.negated:
            if _is_variable(condition.argument):
                bound.add(condition.argument)
        if (
            isinstance(condition, (BeforeCondition, AfterCondition, ContainsCondition))
            and not condition.negated
        ):
            bound.update(_regvar_markers(condition.path))
    return bound


def _regvar_markers(path: ElementPath) -> List[str]:
    return [
        name
        for condition in path.conditions
        if condition.mode == "regvar"
        for name in _VAR_MARKER_PATTERN.findall(condition.value)
    ]


def _check_condition_variables(program: ElogProgram) -> List[Diagnostic]:
    """E004: a test-only condition uses a variable nothing binds."""
    diagnostics: List[Diagnostic] = []
    for rule in program.rules:
        bound = _bound_variables(rule)
        unbound: List[Tuple[str, object]] = []
        for condition in rule.conditions:
            if isinstance(condition, ConceptCondition):
                arguments = [condition.argument]
            elif isinstance(condition, ComparisonCondition):
                arguments = [condition.left, condition.right]
            elif isinstance(condition, PatternReference) and condition.negated:
                arguments = [condition.argument]
            else:
                continue
            for argument in arguments:
                if _is_variable(argument) and argument not in bound:
                    unbound.append((argument, condition))
        for variable, condition in unbound:
            diagnostics.append(
                Diagnostic(
                    "E004",
                    ERROR,
                    f"condition {condition} in the rule for {rule.pattern!r} "
                    f"tests variable {variable!r}, which no extraction atom, "
                    "bind slot or pattern reference in the rule binds",
                    span=_span(rule),
                    subject=variable,
                )
            )
    return diagnostics


def _check_concepts(
    program: ElogProgram, registry: ConceptRegistry
) -> List[Diagnostic]:
    """E005: a concept atom over a name the registry does not know."""
    diagnostics: List[Diagnostic] = []
    known = sorted(registry.names())
    for rule in program.rules:
        for condition in rule.conditions:
            if not isinstance(condition, ConceptCondition):
                continue
            if registry.has(condition.concept):
                continue
            suggestions = difflib.get_close_matches(condition.concept, known, n=1)
            hint = f"; did you mean {suggestions[0]!r}?" if suggestions else ""
            diagnostics.append(
                Diagnostic(
                    "E005",
                    ERROR,
                    f"concept {condition.concept!r} in the rule for "
                    f"{rule.pattern!r} is not registered in the concept "
                    f"registry, so the condition can never accept a "
                    f"value{hint}",
                    span=_span(rule),
                    subject=condition.concept,
                )
            )
    return diagnostics


def _check_duplicates(program: ElogProgram) -> List[Diagnostic]:
    """E006: identical pattern rules (output-neutral, so a slip)."""
    seen: Set[ElogRule] = set()
    diagnostics: List[Diagnostic] = []
    for rule in program.rules:
        if rule in seen:
            diagnostics.append(
                Diagnostic(
                    "E006",
                    WARNING,
                    f"duplicate rule for pattern {rule.pattern!r}: {rule}",
                    span=_span(rule),
                    subject=rule.pattern,
                )
            )
        else:
            seen.add(rule)
    return diagnostics
