"""Element path definitions — the tree-extraction patterns of Elog.

Section 3.3: the ``subelem`` predicate takes an *element path definition*: a
path over tag names that may contain wildcards (certain regular expressions
over tag names) and attribute conditions on the target node.

Concrete syntax (as in Figure 5 of the paper)::

    .table                         a direct child labelled table
    .body.table                    a table child of a body child
    ?.td                           a td at arbitrary depth
    ?.td.?.a                       an a somewhere below a td somewhere below
    (?.td, [(elementtext, \\var[Y].*, regvar)])
                                   a td whose text matches the pattern,
                                   binding Y to the matched prefix
    (.table, [(class, listing, exact)])
                                   a direct child table with class="listing"

Semantics of the path part: the sequence of labels on the path from the
parent node (exclusive) to the target node (inclusive) must match the
sequence of steps, where a named step matches exactly that tag, ``*`` matches
any single tag, and ``?`` matches any (possibly empty) sequence of tags.

Matching is one automaton over the steps, shared by every entry point.  The
states are step positions; a ``?`` step either stays (consuming a label) or
is skipped, and ``*`` or a name advances by one.  :meth:`ElementPath.find_targets`
walks the subtree once in pre-order, carrying the set of positions reached
on the path from the parent, and prunes a subtree as soon as that set is
empty.  The cost is O(subtree × steps) at worst, and an anchored path such as
``.table`` visits only the parent's children.  :meth:`ElementPath.matches_path`
and :meth:`ElementPath.match_target` fold the same step function over an
explicit label sequence.

Attribute conditions are triples ``(attribute, value, mode)``:

* ``attribute`` is an HTML attribute name, or ``elementtext`` for the
  normalised text of the target subtree, or a tag name (asserting that the
  target contains such a descendant whose text/attributes match — the form
  used for ``(a, , substr)`` in Figure 5);
* ``mode`` is ``exact``, ``substr``, ``regexp`` or ``regvar``; ``regvar``
  makes the condition *binding*: the pattern must contain ``\\var[NAME]`` and
  the text matched by that group is bound to the Elog variable ``NAME``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..tree.node import Node

VAR_PATTERN = re.compile(r"\\var\[(?P<name>[A-Za-z_][A-Za-z0-9_]*)\]")


class EPathSyntaxError(ValueError):
    """Raised when an element path definition cannot be parsed."""


@dataclass(frozen=True)
class AttributeCondition:
    """One attribute condition of an element path definition."""

    attribute: str
    value: str
    mode: str = "substr"  # exact | substr | regexp | regvar

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "substr", "regexp", "regvar"):
            raise EPathSyntaxError(f"unknown attribute condition mode {self.mode!r}")

    # -- evaluation -----------------------------------------------------
    def matches(self, node: Node) -> Optional[Dict[str, str]]:
        """Check the condition on ``node``.

        Returns ``None`` on failure, or a (possibly empty) dict of variable
        bindings on success.
        """
        subject = self._subject_text(node)
        if subject is None:
            return None
        if self.mode == "exact":
            return {} if subject.strip() == self.value else None
        if self.mode == "substr":
            return {} if self.value in subject else None
        # regexp / regvar
        pattern, variable_names = compile_variable_pattern(self.value)
        match = pattern.search(subject)
        if match is None:
            return None
        if self.mode == "regexp":
            return {}
        return {name: match.group(name) for name in variable_names}

    def _subject_text(self, node: Node) -> Optional[str]:
        if self.attribute == "elementtext":
            return node.normalized_text()
        if self.attribute in node.attributes:
            return node.attributes[self.attribute]
        # Figure 5 uses conditions like (a, , substr): the target must contain
        # a descendant element with that tag; the "value" (if any) must occur
        # in its text.
        for descendant in node.iter_preorder():
            if descendant is node:
                continue
            if descendant.label == self.attribute:
                return descendant.normalized_text()
        return None

    def __str__(self) -> str:
        return f"({self.attribute}, {self.value}, {self.mode})"


def compile_variable_pattern(pattern_text: str) -> Tuple[re.Pattern, List[str]]:
    """Compile a pattern that may contain ``\\var[NAME]`` capture markers.

    A variable marker matches one maximal whitespace-free token (so
    ``\\var[Y].*`` on the text ``"EUR 12.50"`` binds ``Y`` to ``EUR``); for
    arbitrary captures write an explicit regular expression group instead.
    """
    names: List[str] = []

    def replace(match: re.Match) -> str:
        name = match.group("name")
        names.append(name)
        return f"(?P<{name}>\\S+)"

    regex_text = VAR_PATTERN.sub(replace, pattern_text)
    try:
        return re.compile(regex_text), names
    except re.error as error:
        raise EPathSyntaxError(f"invalid pattern {pattern_text!r}: {error}") from error


@dataclass(frozen=True)
class ElementPath:
    """A parsed element path definition: steps plus attribute conditions."""

    steps: Tuple[str, ...]
    conditions: Tuple[AttributeCondition, ...] = ()

    # -- parsing ------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "ElementPath":
        """Parse the concrete syntax described in the module docstring."""
        text = text.strip()
        conditions: Tuple[AttributeCondition, ...] = ()
        if text.startswith("(") and text.endswith(")"):
            inner = text[1:-1].strip()
            path_part, conditions = _split_path_and_conditions(inner)
        else:
            path_part = text
        steps = tuple(step for step in path_part.strip().strip(".").split(".") if step)
        if not steps:
            raise EPathSyntaxError(f"empty element path in {text!r}")
        for step in steps:
            if step != "?" and step != "*" and not re.fullmatch(r"[A-Za-z0-9_#\-]+", step):
                raise EPathSyntaxError(f"invalid path step {step!r} in {text!r}")
        return cls(steps=steps, conditions=conditions)

    # -- evaluation -----------------------------------------------------------
    def matches_path(self, labels: Sequence[str]) -> bool:
        """Does the label sequence (parent-exclusive, target-inclusive) match?"""
        states = _closure(self.steps, (0,))
        for label in labels:
            states = _advance(self.steps, states, label)
            if not states:
                return False
        return len(self.steps) in states

    def match_target(self, parent: Node, target: Node) -> Optional[Dict[str, str]]:
        """Check whether ``target`` is reachable from ``parent`` via this path
        and satisfies the attribute conditions.

        Returns variable bindings on success, ``None`` on failure.
        """
        if target is parent or not parent.is_ancestor_of(target):
            return None
        labels: List[str] = []
        node = target
        while node is not parent and node is not None:
            labels.append(node.label)
            node = node.parent
        labels.reverse()
        if not self.matches_path(labels):
            return None
        return self._check_conditions(target)

    def find_targets(self, parent: Node) -> List[Tuple[Node, Dict[str, str]]]:
        """All descendants of ``parent`` matched by this path, in doc order.

        One pre-order pass that carries the step positions reached so far
        and prunes every subtree where that set runs empty.  Transitions are
        cached per pass, so a label seen again in the same state costs one
        dict lookup.
        """
        steps = self.steps
        accept = len(steps)
        results: List[Tuple[Node, Dict[str, str]]] = []
        transitions: Dict[Tuple[FrozenSet[int], str], FrozenSet[int]] = {}
        start = _closure(steps, (0,))
        stack = [(child, start) for child in reversed(parent.children)]
        while stack:
            node, states = stack.pop()
            key = (states, node.label)
            reached = transitions.get(key)
            if reached is None:
                reached = transitions[key] = _advance(steps, states, node.label)
            if not reached:
                continue
            if accept in reached:
                if node.label != "#comment":
                    bindings = self._check_conditions(node)
                    if bindings is not None:
                        results.append((node, bindings))
                if len(reached) == 1:
                    continue  # all steps consumed: nothing below can match
            stack.extend((child, reached) for child in reversed(node.children))
        return results

    def _check_conditions(self, node: Node) -> Optional[Dict[str, str]]:
        bindings: Dict[str, str] = {}
        for condition in self.conditions:
            result = condition.matches(node)
            if result is None:
                return None
            bindings.update(result)
        return bindings

    # -- display ---------------------------------------------------------------
    def __str__(self) -> str:
        path_text = "." + ".".join(self.steps) if self.steps[0] != "?" else ".".join(self.steps)
        if not self.conditions:
            return path_text
        condition_text = ", ".join(str(condition) for condition in self.conditions)
        return f"({path_text}, [{condition_text}])"


def _split_path_and_conditions(inner: str) -> Tuple[str, Tuple[AttributeCondition, ...]]:
    """Split "path, [conditions]" taking nesting into account."""
    depth = 0
    for position, character in enumerate(inner):
        if character in "([":
            depth += 1
        elif character in ")]":
            depth -= 1
        elif character == "," and depth == 0:
            path_part = inner[:position]
            condition_part = inner[position + 1:].strip()
            return path_part, _parse_conditions(condition_part)
    return inner, ()


def _parse_conditions(text: str) -> Tuple[AttributeCondition, ...]:
    text = text.strip()
    if not text or text == "[]":
        return ()
    if not (text.startswith("[") and text.endswith("]")):
        raise EPathSyntaxError(f"attribute conditions must be a [...] list, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    conditions: List[AttributeCondition] = []
    for chunk in _split_top_level(inner):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise EPathSyntaxError(f"attribute condition must be a (...) triple, got {chunk!r}")
        parts = [part.strip() for part in _split_top_level(chunk[1:-1])]
        if len(parts) == 2:
            attribute, value = parts
            mode = "substr"
        elif len(parts) == 3:
            attribute, value, mode = parts
            mode = mode or "substr"
        else:
            raise EPathSyntaxError(f"attribute condition needs 2 or 3 fields: {chunk!r}")
        conditions.append(AttributeCondition(attribute, value, mode))
    return tuple(conditions)


def _split_top_level(text: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for character in text:
        if character in "([":
            depth += 1
        elif character in ")]":
            depth -= 1
        if character == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(character)
    parts.append("".join(current))
    return parts


def _closure(steps: Tuple[str, ...], states: Iterable[int]) -> FrozenSet[int]:
    """``states`` plus every step position reachable by skipping ``?`` steps.

    Position ``i`` means ``steps[:i]`` have consumed the labels seen so far.
    """
    closed = set()
    for position in states:
        closed.add(position)
        while position < len(steps) and steps[position] == "?":
            position += 1
            closed.add(position)
    return frozenset(closed)


def _advance(steps: Tuple[str, ...], states: FrozenSet[int], label: str) -> FrozenSet[int]:
    """The positions reached from ``states`` by consuming one ``label``."""
    reached = set()
    for position in states:
        if position == len(steps):
            continue
        step = steps[position]
        if step == "?":
            reached.add(position)
        elif step == "*" or step == label:
            reached.add(position + 1)
    return _closure(steps, reached)
