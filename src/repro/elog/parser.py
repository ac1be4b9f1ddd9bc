"""Textual parser for Elog programs (the Figure 5 concrete syntax).

Grammar (one rule per ``<-`` clause, terminated by a newline or ``.``)::

    pattern(S, X) <- parentpattern(_, S), subelem(S, <epath>, X), cond, ... .
    pattern(S, X) <- document("url", S), subsq(S, <epath>, <epath>, <epath>, X), ... .

Supported body atoms:

* ``parent(_, S)`` / ``parent(Var, S)`` — the parent-pattern atom;
* ``document("url", S)`` and ``document(Var, S)`` — crawling atoms;
* extraction atoms ``subelem(S, <epath>, X)``, ``subtext(S, <textpath>, X)``,
  ``subatt(S, attname, X)``, ``subsq(S, <epath>, <epath>, <epath>, X)``;
* condition atoms ``before(S, X, <epath>, min, max[, Var[, _]])``, ``after``,
  ``notbefore``, ``notafter``, ``contains(X, <epath>[, Var])``,
  ``notcontains(X, <epath>)``, ``firstsubtree(S, X)``;
* concept atoms ``isCurrency(Y)`` etc. (any registered concept name),
  possibly negated with a leading ``not``;
* comparison atoms ``lt(A, B)``, ``le``, ``gt``, ``ge``, ``eq``, ``neq``;
* pattern references ``otherpattern(_, Y)``.

Element paths and string paths are passed through verbatim to
:class:`~repro.elog.epath.ElementPath` / :class:`~repro.elog.textpath.TextPath`.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..datalog.ast import Span, set_span
from .ast import (
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
from .concepts import DEFAULT_CONCEPTS
from .epath import ElementPath, EPathSyntaxError
from .textpath import AttributePath, TextPath

COMPARISON_OPERATORS = ("lt", "le", "gt", "ge", "eq", "neq")
EXTRACTION_NAMES = ("subelem", "subtext", "subatt", "subsq")
CONDITION_NAMES = (
    "before", "after", "notbefore", "notafter",
    "contains", "notcontains", "firstsubtree",
)

_HEAD_PATTERN = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(?P<parent_var>[A-Za-z_][A-Za-z0-9_]*)\s*,"
    r"\s*(?P<target_var>[A-Za-z_][A-Za-z0-9_]*)\s*\)\s*$"
)


class ElogSyntaxError(ValueError):
    """Raised when an Elog program text cannot be parsed.

    ``line`` (1-based, when known) localises the failing rule in the
    program text for tooling such as :mod:`repro.analysis`.
    """

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


def parse_elog(text: str) -> ElogProgram:
    """Parse an Elog program from text.

    Every parsed rule carries a source :class:`~repro.datalog.ast.Span`
    (the line its head starts on), retrievable through
    :func:`repro.datalog.ast.get_span`.
    """
    rules: List[ElogRule] = []
    for line, rule_text in _split_rules_with_lines(text):
        try:
            rule = parse_rule(rule_text)
        except ElogSyntaxError as error:
            if error.line is None:
                raise ElogSyntaxError(str(error), line) from error.__cause__
            raise
        set_span(rule, Span(line, 1, line, max(1, len(rule_text))))
        rules.append(rule)
    return ElogProgram(rules)


def parse_rule(text: str) -> ElogRule:
    """Parse a single Elog rule.

    A malformed element path inside the rule raises
    :class:`ElogSyntaxError` too, chained from the path parser's
    :class:`~repro.elog.epath.EPathSyntaxError`.
    """
    try:
        return _parse_rule(text)
    except EPathSyntaxError as error:
        raise ElogSyntaxError(str(error)) from error


def _parse_rule(text: str) -> ElogRule:
    if "<-" in text:
        head_text, body_text = text.split("<-", 1)
    elif ":-" in text:
        head_text, body_text = text.split(":-", 1)
    else:
        raise ElogSyntaxError(f"rule {text!r} has no <- separator")
    head_match = _HEAD_PATTERN.match(head_text)
    if head_match is None:
        raise ElogSyntaxError(f"cannot parse rule head {head_text.strip()!r}")
    pattern_name = head_match.group("name")
    body_text = body_text.strip().rstrip(".")
    atoms = [atom.strip() for atom in _split_top_level_commas(body_text) if atom.strip()]

    parent: Optional[str] = None
    document: Optional[DocumentSource] = None
    extraction = None
    conditions: List = []

    parent_variable = head_match.group("parent_var")
    target_variable = head_match.group("target_var")

    for atom_text in atoms:
        name, arguments = _parse_atom(atom_text)
        negated = name.startswith("not::")
        if negated:
            name = name[len("not::"):]
        lowered = name.lower()
        if lowered == "document":
            document = _parse_document(arguments)
        elif lowered in EXTRACTION_NAMES:
            extraction = _parse_extraction(lowered, arguments, atom_text)
        elif lowered in CONDITION_NAMES:
            conditions.append(_parse_condition(lowered, arguments, atom_text))
        elif lowered in COMPARISON_OPERATORS:
            if len(arguments) != 2:
                raise ElogSyntaxError(f"comparison {atom_text!r} needs two arguments")
            conditions.append(ComparisonCondition(lowered, arguments[0], arguments[1]))
        elif _looks_like_concept(name, arguments):
            conditions.append(ConceptCondition(name, arguments[0], negated=negated))
        elif len(arguments) == 2:
            first, second = arguments
            if negated:
                conditions.append(PatternReference(name, second, negated=True))
            elif first == parent_variable and second == target_variable and parent is None:
                # specialisation rule (footnote 6): the body repeats the head
                # variables — the new pattern matches a subset of the parent's
                # own instances.
                parent = name
            elif second == parent_variable and parent is None:
                # parent-pattern atom: its second argument carries S.
                parent = name
            else:
                conditions.append(PatternReference(name, second))
        else:
            raise ElogSyntaxError(f"cannot interpret atom {atom_text!r}")

    if parent is None and document is None:
        raise ElogSyntaxError(f"rule {text!r} has neither a parent pattern nor a document atom")
    return ElogRule(
        pattern=pattern_name,
        parent=parent or "document",
        extraction=extraction,
        conditions=tuple(conditions),
        document=document,
    )


# ---------------------------------------------------------------------------
# Atom-level parsing
# ---------------------------------------------------------------------------


def _parse_atom(text: str) -> Tuple[str, List[str]]:
    text = text.strip()
    negated = False
    if text.lower().startswith("not "):
        negated = True
        text = text[4:].strip()
    match = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$", text, re.DOTALL)
    if match is None:
        raise ElogSyntaxError(f"cannot parse atom {text!r}")
    name = match.group(1)
    arguments = [argument.strip() for argument in _split_top_level_commas(match.group(2))]
    if negated:
        name = f"not::{name}"
    return name, arguments


def _parse_document(arguments: List[str]) -> DocumentSource:
    if len(arguments) != 2:
        raise ElogSyntaxError(f"document atom needs two arguments, got {arguments}")
    url = arguments[0]
    if url.startswith(("\"", "'")) and url.endswith(("\"", "'")):
        return DocumentSource(url=url[1:-1], is_variable=False)
    return DocumentSource(url=url, is_variable=True)


def _parse_extraction(name: str, arguments: List[str], source: str):
    if name == "subelem":
        if len(arguments) != 3:
            raise ElogSyntaxError(f"subelem needs 3 arguments: {source!r}")
        return SubElem(path=ElementPath.parse(arguments[1]), target=arguments[2])
    if name == "subtext":
        if len(arguments) != 3:
            raise ElogSyntaxError(f"subtext needs 3 arguments: {source!r}")
        return SubText(path=TextPath.parse(_strip_quotes(arguments[1])), target=arguments[2])
    if name == "subatt":
        if len(arguments) != 3:
            raise ElogSyntaxError(f"subatt needs 3 arguments: {source!r}")
        return SubAtt(path=AttributePath.parse(_strip_quotes(arguments[1])), target=arguments[2])
    if name == "subsq":
        if len(arguments) != 5:
            raise ElogSyntaxError(f"subsq needs 5 arguments: {source!r}")
        return SubSequence(
            scope=ElementPath.parse(arguments[1]),
            first=ElementPath.parse(arguments[2]),
            last=ElementPath.parse(arguments[3]),
            target=arguments[4],
        )
    raise ElogSyntaxError(f"unknown extraction atom {name!r}")


def _parse_condition(name: str, arguments: List[str], source: str):
    if name in ("before", "after", "notbefore", "notafter"):
        if len(arguments) < 3:
            raise ElogSyntaxError(f"{name} needs at least a path argument: {source!r}")
        path = ElementPath.parse(arguments[2])
        min_distance = _parse_distance(arguments[3]) if len(arguments) > 3 else 0
        max_distance = _parse_distance(arguments[4], default=10 ** 9) if len(arguments) > 4 else 10 ** 9
        bind = None
        if len(arguments) > 5 and arguments[5] not in ("_", ""):
            bind = arguments[5]
        negated = name.startswith("not")
        condition_class = BeforeCondition if "before" in name else AfterCondition
        return condition_class(
            path=path,
            min_distance=min_distance,
            max_distance=max_distance,
            bind=bind,
            negated=negated,
        )
    if name in ("contains", "notcontains"):
        if len(arguments) < 2:
            raise ElogSyntaxError(f"{name} needs a path argument: {source!r}")
        bind = None
        if len(arguments) > 2 and arguments[2] not in ("_", ""):
            bind = arguments[2]
        return ContainsCondition(
            path=ElementPath.parse(arguments[1]),
            bind=bind,
            negated=name == "notcontains",
        )
    if name == "firstsubtree":
        return FirstSubtreeCondition()
    raise ElogSyntaxError(f"unknown condition {name!r}")


def _parse_distance(text: str, default: int = 0) -> int:
    text = text.strip()
    if not text or text == "_":
        return default
    try:
        return int(text)
    except ValueError as error:
        raise ElogSyntaxError(f"invalid distance {text!r}") from error


def _looks_like_concept(name: str, arguments: List[str]) -> bool:
    if len(arguments) != 1:
        return False
    return DEFAULT_CONCEPTS.has(name) or name.startswith("is")


def _strip_quotes(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] in "\"'" and text[-1] == text[0]:
        return text[1:-1]
    return text


# ---------------------------------------------------------------------------
# Text splitting helpers (comma / rule separation respecting nesting)
# ---------------------------------------------------------------------------


def _split_top_level_commas(text: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    in_string: Optional[str] = None
    current: List[str] = []
    for character in text:
        if in_string is not None:
            current.append(character)
            if character == in_string:
                in_string = None
            continue
        if character in "\"'":
            in_string = character
            current.append(character)
            continue
        if character in "([":
            depth += 1
        elif character in ")]":
            depth -= 1
        if character == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(character)
    if current:
        parts.append("".join(current))
    return parts


_RULE_HEAD_PATTERN = re.compile(r"^\s*[A-Za-z_][A-Za-z0-9_]*\s*\([^)]*\)\s*(<-|:-)")


def _split_rules_with_lines(text: str) -> List[Tuple[int, str]]:
    """Split program text into ``(start line, rule chunk)`` pairs.

    A rule starts with ``name(S, X) <-`` and extends until the next rule head
    or the end of the text; this allows multi-line rules as in Figure 5
    without requiring terminating dots.  Line numbers are 1-based positions
    in the original text (blank and comment lines are skipped, not
    renumbered).
    """
    numbered = [
        (number, line)
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("%")
    ]
    rules: List[Tuple[int, str]] = []
    current: List[str] = []
    current_line = 0
    for number, line in numbered:
        if _RULE_HEAD_PATTERN.match(line) and current:
            rules.append((current_line, " ".join(current)))
            current = [line]
            current_line = number
        else:
            if not current:
                current_line = number
            current.append(line)
    if current:
        rules.append((current_line, " ".join(current)))
    return [(line, rule) for line, rule in rules if rule.strip()]
