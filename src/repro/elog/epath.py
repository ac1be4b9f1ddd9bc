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

Matching is one deterministic automaton per step sequence, shared by every
entry point.  It is the subset construction (Rabin and Scott, 1959) over the
step positions: position ``i`` means ``steps[:i]`` have consumed the labels
seen so far, a ``?`` step either stays (consuming a label) or is skipped, and
``*`` or a name advances by one.  :func:`_dfa` builds the whole automaton
eagerly the first time a step sequence is matched and memoises it
process-wide, so every later call reuses the same immutable value.  States
are integers: 0 is the start state and -1 the dead state.  Each state has one
``{label: next}`` dict for the labels that named steps mention and one
default successor for every other label, so a step is
``rows[state].get(label, other[state])``.  :meth:`ElementPath.matches_path`
and :meth:`ElementPath.match_target` fold the automaton over an explicit
label sequence.

:meth:`ElementPath.find_targets` answers in document order, at one of two
costs:

* ``?.name`` over a node of a built :class:`~repro.tree.document.Document`
  is a region query.  The document is never edited, so the answer is the
  slice of the label's document-order node list whose preorders lie strictly
  inside the parent's span, found by two bisections of the label's preorder
  column: O(log m + k) for m nodes carrying the label and k hits, whatever
  the size of the parent's subtree (Grust, "Accelerating XPath location
  steps", SIGMOD 2002).
* Every other shape, and any tree never wrapped in a document, takes the
  automaton walk: one pre-order pass carrying the state reached from the
  parent, pruning a subtree once the state is dead or *final* (all steps
  consumed, no position left that could match deeper).  That is O(subtree)
  for a path starting with ``?``; an anchored path such as ``.table`` visits
  only the parent's children.

Attribute conditions are checked on each hit, at their own cost on top.

Attribute conditions are triples ``(attribute, value, mode)``:

* ``attribute`` is an HTML attribute name, or ``elementtext`` for the
  normalised text of the target subtree, or a tag name (asserting that the
  target contains such a descendant whose text/attributes match — the form
  used for ``(a, , substr)`` in Figure 5);
* ``mode`` is ``exact``, ``substr``, ``regexp`` or ``regvar``; ``regvar``
  makes the condition *binding*: the pattern must contain ``\\var[NAME]`` and
  the text matched by that group is bound to the Elog variable ``NAME``.

The pattern of a ``regexp`` / ``regvar`` condition is compiled when the
condition is constructed, so a malformed regular expression is a parse
error, never a failure in the middle of an extraction.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..tree.document import Document
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
    _pattern: Optional[re.Pattern] = field(default=None, init=False, repr=False, compare=False)
    _names: Tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "substr", "regexp", "regvar"):
            raise EPathSyntaxError(f"unknown attribute condition mode {self.mode!r}")
        if self.mode in ("regexp", "regvar"):
            pattern, names = compile_variable_pattern(self.value)
            object.__setattr__(self, "_pattern", pattern)
            object.__setattr__(self, "_names", names)

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
        match = self._pattern.search(subject)
        if match is None:
            return None
        if self.mode == "regexp":
            return {}
        return {name: match.group(name) for name in self._names}

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


@functools.lru_cache(maxsize=1024)
def compile_variable_pattern(pattern_text: str) -> Tuple[re.Pattern, Tuple[str, ...]]:
    """Compile a pattern that may contain ``\\var[NAME]`` capture markers.

    A variable marker matches one maximal whitespace-free token (so
    ``\\var[Y].*`` on the text ``"EUR 12.50"`` binds ``Y`` to ``EUR``); for
    arbitrary captures write an explicit regular expression group instead.
    Returns the compiled pattern and the marker names in order, memoised
    per pattern text.
    """
    names: List[str] = []

    def replace(match: re.Match) -> str:
        name = match.group("name")
        names.append(name)
        return f"(?P<{name}>\\S+)"

    regex_text = VAR_PATTERN.sub(replace, pattern_text)
    try:
        return re.compile(regex_text), tuple(names)
    except re.error as error:
        raise EPathSyntaxError(f"invalid pattern {pattern_text!r}: {error}") from error


@dataclass(frozen=True)
class ElementPath:
    """A parsed element path definition: steps plus attribute conditions."""

    steps: Tuple[str, ...]
    conditions: Tuple[AttributeCondition, ...] = ()
    #: The name of a ``?.name`` path, answered by a region query; None for
    #: every other shape (see the module docstring).
    _region_label: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        steps = self.steps
        if len(steps) == 2 and steps[0] == "?" and steps[1] not in ("?", "*"):
            object.__setattr__(self, "_region_label", steps[1])

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
        rows, other, accepting, _ = _dfa(self.steps)
        state = 0
        for label in labels:
            state = rows[state].get(label, other[state])
            if state < 0:
                return False
        return state in accepting

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
        """All descendants of ``parent`` matched by this path, in doc order:
        a region query or the automaton walk (see the module docstring), with
        the attribute conditions checked on the hits."""
        document = parent.document
        if self._region_label is not None and document is not None:
            hits = self._region_hits(document, parent)
        else:
            hits = self._walk_hits(parent)
        if not self.conditions:
            return [(node, {}) for node in hits]
        results: List[Tuple[Node, Dict[str, str]]] = []
        for node in hits:
            bindings = self._check_conditions(node)
            if bindings is not None:
                results.append((node, bindings))
        return results

    def _region_hits(self, document: Document, parent: Node) -> List[Node]:
        """The region answer of ``?.name``: the nodes carrying the name whose
        preorder lies strictly inside ``parent``'s span, found by bisecting
        the document's preorder column for the name."""
        if self._region_label == "#comment":
            return []  # as the walk: a comment is never a target
        nodes, preorders = document.label_column(self._region_label)
        low = bisect_right(preorders, parent.preorder_index)
        return nodes[low:bisect_left(preorders, parent.subtree_end, low)]

    def _walk_hits(self, parent: Node) -> List[Node]:
        """The automaton walk: each node costs one dict lookup, and a subtree
        is pruned in a dead or final state.  The walk keeps one sibling
        iterator per open level, paired with the state its nodes are
        entered from."""
        rows, other, accepting, final = _dfa(self.steps)
        hits: List[Node] = []
        suspended: List[Tuple[Iterator[Node], int]] = []
        siblings, entered = iter(parent.children), 0
        while True:
            for node in siblings:
                label = node.label
                state = rows[entered].get(label, other[entered])
                if state < 0:
                    continue
                if state in accepting:
                    if label != "#comment":
                        hits.append(node)
                    if state in final:
                        continue  # all steps consumed: nothing below can match
                if node.children:
                    suspended.append((siblings, entered))
                    siblings, entered = iter(node.children), state
                    break
            else:
                if not suspended:
                    return hits
                siblings, entered = suspended.pop()

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


class _Dfa(NamedTuple):
    """The compiled automaton of one step sequence (see :func:`_dfa`)."""

    rows: Tuple[Dict[str, int], ...]  # per state: named-step label -> next
    other: Tuple[int, ...]  # per state: the next state on any other label
    accepting: FrozenSet[int]  # every step consumed
    final: FrozenSet[int]  # accepting with no position left: prune below


@functools.lru_cache(maxsize=1024)
def _dfa(steps: Tuple[str, ...]) -> _Dfa:
    """The subset automaton of ``steps``, built eagerly and memoised.

    A state is a set of step positions (:func:`_closure` /
    :func:`_advance`), numbered in discovery order from the start state 0;
    the empty set is the dead state -1.  Only the labels that named steps
    mention get a row entry: every other label reaches the same set, the
    state's ``other`` successor.  The rows are never mutated after this
    returns.
    """
    accept = len(steps)
    labels = sorted({step for step in steps if step not in ("?", "*")})
    sets = [_closure(steps, (0,))]
    numbers = {sets[0]: 0}

    def number(reached: FrozenSet[int]) -> int:
        if not reached:
            return -1
        if reached not in numbers:
            numbers[reached] = len(sets)
            sets.append(reached)
        return numbers[reached]

    rows: List[Dict[str, int]] = []
    other: List[int] = []
    for states in sets:  # grows while it is walked: each new set gets a row
        rows.append({label: number(_advance(steps, states, label)) for label in labels})
        other.append(number(_advance(steps, states, None)))
    return _Dfa(
        rows=tuple(rows),
        other=tuple(other),
        accepting=frozenset(n for n, states in enumerate(sets) if accept in states),
        final=frozenset(n for n, states in enumerate(sets) if states == {accept}),
    )


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


def _advance(
    steps: Tuple[str, ...], states: FrozenSet[int], label: Optional[str]
) -> FrozenSet[int]:
    """The positions reached from ``states`` by consuming one ``label``
    (``None`` stands for a label that no named step mentions)."""
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
