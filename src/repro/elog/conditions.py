"""Evaluation of Elog condition atoms.

The paper distinguishes (Section 3.3) context conditions (``before`` /
``after`` with distance tolerances), internal conditions (``contains``,
``firstsubtree``), concept conditions (``isCurrency`` ...), comparison
conditions, and pattern references.  This module evaluates a single condition
against one extraction candidate.

Path interpretation: extraction paths (``subelem``) are anchored at the
parent node, but context- and internal-condition paths are matched anywhere
within the relevant subtree (an implicit leading ``?``) — the paper stresses
that "before and after predicates are much more flexible in that they allow
for nodes before or after the target pattern instance node to be arbitrarily
distant".  :func:`compile_condition` gives such a condition that
``?``-prefixed path (:func:`lenient_path`) once, when the extractor
compiles a program, and its automaton is memoised like every other.

Distance semantics: for a witness node B occurring before the target X, the
distance is the number of document-order positions between the end of B's
subtree and the start of X (0 = immediately adjacent); symmetrically for
``after``.  This reproduces the 0/0 tolerances of Figure 5 (the sequence
starts right after the list header and is immediately followed by an ``hr``).

Witness memo: the witnesses of a context condition depend only on the scope
node and the condition's path, not on the candidate.  They are computed once
per ``(scope node, path)`` and kept in :attr:`ConditionContext.witnesses` as
one :class:`Witnesses` value: the witnesses in document order, their starts
(ascending, since document order is preorder), and their subtree ends sorted
ascending.  A node's subtree span ``[start, end)`` is read off the node
(:attr:`~repro.tree.node.Node.subtree_end` is recorded once, when the
immutable ``Document`` is built), so nothing walks a subtree or an ancestor
chain.  A ``before`` witness at distance ``d`` ends at ``target_start - d``,
and an ``after`` witness starts at ``target_end + d``, so a condition
bisects to its distance window ``[min, max]`` and visits only the witnesses
inside it; they are returned in document order, the order a full scan would
find them in.  The extractor shares one memo across every candidate of one
``Extractor.extract`` call and drops it when the call returns.  Documents
are immutable, and the keys are the node objects themselves, which the memo
keeps alive, so a key can never alias another node.  No witness inside the
target needs excluding: such a witness ends after the target starts, which
fails the ``before`` test, and starts before the target ends, which fails
the ``after`` test.

Compiled conditions: :func:`compile_condition` picks a condition's evaluator
once, so the extractor dispatches once per rule of a program rather than
once per candidate.  A condition that can bind nothing (a pattern
reference, concept or comparison, a negated condition, and a context or
``contains`` condition with no ``bind`` variable and no ``regvar`` in its
path) compiles to a test that returns whether it holds: all its witnesses
would extend the bindings by nothing, so trying one of them is trying them
all.  A condition that binds compiles to a function returning one binding
extension per witness, which the extractor backtracks over.
"""

from __future__ import annotations

import functools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..tree.node import Node
from .ast import (
    AfterCondition,
    BeforeCondition,
    ComparisonCondition,
    ConceptCondition,
    Condition,
    ContainsCondition,
    FirstSubtreeCondition,
    PatternReference,
)
from .concepts import DEFAULT_CONCEPTS, ConceptRegistry, parse_date, parse_number
from .epath import ElementPath
from .instance_base import PatternInstanceBase

Target = Union[Node, Sequence[Node], str]


class Witnesses:
    """The witnesses of one ``(scope node, path)``, indexed by their spans.

    ``found`` holds ``(node, bindings)`` in document order, so ``starts``
    ascends.  ``ends`` holds the subtree ends in ascending order, and
    ``by_end`` the position in ``found`` of each.
    """

    __slots__ = ("found", "starts", "ends", "by_end")

    def __init__(self, found: List[Tuple[Node, Dict[str, str]]]) -> None:
        self.found = found
        self.starts = [node.preorder_index for node, _ in found]
        ends = [node.subtree_end for node, _ in found]
        self.by_end = sorted(range(len(found)), key=ends.__getitem__)
        self.ends = [ends[position] for position in self.by_end]

    def window(self, before: bool, span: Tuple[int, int], low: int, high: int) -> Sequence[int]:
        """Positions in :attr:`found`, ascending, of the witnesses at a
        distance in ``[low, high]`` before (or after) ``span``."""
        low = max(low, 0)  # distances are never negative
        if before:
            first = bisect_left(self.ends, span[0] - high)
            last = bisect_right(self.ends, span[0] - low)
            return sorted(self.by_end[first:last])
        return range(
            bisect_left(self.starts, span[1] + low), bisect_right(self.starts, span[1] + high)
        )


#: Witnesses per ``(scope node, path)``, shared across the candidates of one
#: extraction.
WitnessMemo = Dict[Tuple[Node, ElementPath], Witnesses]

_NO_WITNESSES = Witnesses([])


@dataclass
class ConditionContext:
    """Everything a condition may need to look at.

    The extractor builds one context per rule and parent instance, and sets
    :attr:`target` and :attr:`bindings` for each candidate.
    """

    parent_node: Optional[Node]
    parent_nodes: Optional[List[Node]]  # sequence parents
    target: Target
    bindings: Dict[str, object] = field(default_factory=dict)
    instance_base: Optional[PatternInstanceBase] = None
    concepts: ConceptRegistry = field(default_factory=lambda: DEFAULT_CONCEPTS)
    witnesses: WitnessMemo = field(default_factory=dict)

    # -- helpers -----------------------------------------------------------
    def target_members(self) -> List[Node]:
        if isinstance(self.target, Node):
            return [self.target]
        if isinstance(self.target, str):
            return []
        return list(self.target)

    def target_span(self) -> Optional[Tuple[int, int]]:
        """(start, end) of the target in document order; None for strings."""
        target = self.target
        if isinstance(target, Node):
            return target.preorder_index, target.subtree_end
        if isinstance(target, str) or not target:
            return None
        return target[0].preorder_index, target[-1].subtree_end

    def scope_node(self) -> Optional[Node]:
        if self.parent_node is not None:
            return self.parent_node
        if self.parent_nodes:
            return self.parent_nodes[0].parent or self.parent_nodes[0]
        return None

    def value_of(self, argument: str) -> Optional[object]:
        """The value of a condition argument: X = the target, otherwise a
        bound variable."""
        if argument == "X":
            if isinstance(self.target, str):
                return self.target
            nodes = self.target_members()
            return nodes[0].normalized_text() if nodes else None
        value = self.bindings.get(argument)
        if isinstance(value, Node):
            return value.normalized_text()
        return value


def lenient_path(path: ElementPath) -> ElementPath:
    """Prefix the path with '?' so it matches anywhere within the subtree."""
    if path.steps and path.steps[0] == "?":
        return path
    return ElementPath(steps=("?",) + path.steps, conditions=path.conditions)


def _witnesses_in_scope(context: ConditionContext, path: ElementPath) -> Witnesses:
    scope = context.scope_node()
    if scope is None:
        return _NO_WITNESSES
    key = (scope, path)
    witnesses = context.witnesses.get(key)
    if witnesses is None:
        witnesses = Witnesses(path.find_targets(scope))
        context.witnesses[key] = witnesses
    return witnesses


#: A condition compiled once per rule: ``(binds, run)``.  For a condition
#: that can bind variables, ``run(context)`` returns its binding extensions,
#: one per witness; for one that binds nothing, whether it holds.
CompiledCondition = Tuple[bool, Callable[[ConditionContext], Any]]

Extensions = List[Dict[str, object]]


def compile_condition(condition: Condition) -> CompiledCondition:
    """Pick the evaluator of ``condition`` (see the module docstring)."""
    if isinstance(condition, (BeforeCondition, AfterCondition, ContainsCondition)):
        # The evaluators below read the path as compiled here: lenient.
        condition = replace(condition, path=lenient_path(condition.path))
    if isinstance(condition, (BeforeCondition, AfterCondition)):
        before = isinstance(condition, BeforeCondition)
        if _binds(condition):
            return True, functools.partial(_context_extensions, condition, before)
        return False, functools.partial(_context_holds, condition, before)
    if isinstance(condition, ContainsCondition):
        if _binds(condition):
            return True, functools.partial(_contains_extensions, condition)
        return False, functools.partial(_contains_holds, condition)
    if isinstance(condition, FirstSubtreeCondition):
        return False, _holds
    if isinstance(condition, ConceptCondition):
        return False, functools.partial(_concept_holds, condition)
    if isinstance(condition, ComparisonCondition):
        return False, functools.partial(_comparison_holds, condition)
    if isinstance(condition, PatternReference):
        return False, functools.partial(_reference_holds, condition)
    raise TypeError(f"unknown condition type {type(condition).__name__}")


def _binds(condition: Union[BeforeCondition, AfterCondition, ContainsCondition]) -> bool:
    """Whether a witness can extend the bindings: a non-negated condition
    with a ``bind`` variable or a ``regvar`` attribute condition."""
    if condition.negated:
        return False
    return bool(condition.bind) or any(
        attribute.mode == "regvar" for attribute in condition.path.conditions
    )


def _holds(context: ConditionContext) -> bool:
    return True


def _extensions(
    condition: Union[BeforeCondition, AfterCondition, ContainsCondition],
    found: Iterable[Tuple[Node, Dict[str, str]]],
) -> Extensions:
    extensions: Extensions = []
    for node, bindings in found:
        extension: Dict[str, object] = dict(bindings)
        if condition.bind:
            extension[condition.bind] = node
        extensions.append(extension)
    return extensions


# ---------------------------------------------------------------------------
# Context conditions
# ---------------------------------------------------------------------------


def _context_window(
    condition: Union[BeforeCondition, AfterCondition],
    context: ConditionContext,
    before: bool,
) -> Optional[Tuple[Witnesses, Sequence[int]]]:
    """The witnesses and the positions inside the distance window; None for a
    string target, which has no position in the document."""
    span = context.target_span()
    if span is None:
        return None
    witnesses = _witnesses_in_scope(context, condition.path)
    window = witnesses.window(before, span, condition.min_distance, condition.max_distance)
    return witnesses, window


def _context_extensions(
    condition: Union[BeforeCondition, AfterCondition],
    before: bool,
    context: ConditionContext,
) -> Extensions:
    windowed = _context_window(condition, context, before)
    if windowed is None:
        return []
    witnesses, window = windowed
    return _extensions(condition, (witnesses.found[position] for position in window))


def _context_holds(
    condition: Union[BeforeCondition, AfterCondition],
    before: bool,
    context: ConditionContext,
) -> bool:
    windowed = _context_window(condition, context, before)
    if windowed is None:
        return False
    return bool(windowed[1]) != condition.negated


# ---------------------------------------------------------------------------
# Internal conditions
# ---------------------------------------------------------------------------


def _contained(
    condition: ContainsCondition, context: ConditionContext
) -> List[Tuple[Node, Dict[str, str]]]:
    path = condition.path
    return [match for member in context.target_members() for match in path.find_targets(member)]


def _contains_extensions(condition: ContainsCondition, context: ConditionContext) -> Extensions:
    return _extensions(condition, _contained(condition, context))


def _contains_holds(condition: ContainsCondition, context: ConditionContext) -> bool:
    return bool(_contained(condition, context)) != condition.negated


# ---------------------------------------------------------------------------
# Concept / comparison / pattern-reference conditions
# ---------------------------------------------------------------------------


def _concept_holds(condition: ConceptCondition, context: ConditionContext) -> bool:
    value = context.value_of(condition.argument)
    if value is None:
        return condition.negated
    return bool(context.concepts.check(condition.concept, value)) != condition.negated


def _comparison_holds(condition: ComparisonCondition, context: ConditionContext) -> bool:
    left = context.value_of(condition.left)
    right = context.value_of(condition.right)
    if left is None or right is None:
        return False
    left_value, right_value = _coerce_pair(left, right)
    compare = _COMPARISONS.get(condition.operator)
    if compare is None:
        raise ValueError(f"unknown comparison operator {condition.operator!r}")
    try:
        return bool(compare(left_value, right_value))
    except TypeError:
        return False


_COMPARISONS: Dict[str, Callable[[Any, Any], bool]] = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "neq": operator.ne,
}


def _coerce_pair(left: object, right: object) -> Tuple[object, object]:
    """Try to compare as numbers, then as dates, then as strings."""
    left_text, right_text = str(left), str(right)
    left_number, right_number = parse_number(left_text), parse_number(right_text)
    if left_number is not None and right_number is not None:
        return left_number, right_number
    left_date, right_date = parse_date(left_text), parse_date(right_text)
    if left_date is not None and right_date is not None:
        return left_date, right_date
    return left_text, right_text


def _reference_holds(condition: PatternReference, context: ConditionContext) -> bool:
    if context.instance_base is None:
        return False
    value = context.bindings.get(condition.argument)
    if condition.argument == "X" and value is None:
        nodes = context.target_members()
        value = nodes[0] if nodes else None
    holds = isinstance(value, Node) and context.instance_base.node_is_instance_of(
        condition.pattern, value
    )
    return holds != condition.negated
