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
distant".  :func:`lenient_path` builds that ``?``-prefixed path once per
path and process, and its automaton is memoised like every other.

Distance semantics: for a witness node B occurring before the target X, the
distance is the number of document-order positions between the end of B's
subtree and the start of X (0 = immediately adjacent); symmetrically for
``after``.  This reproduces the 0/0 tolerances of Figure 5 (the sequence
starts right after the list header and is immediately followed by an ``hr``).

Witness memo: the witnesses of a context condition depend only on the scope
node and the condition's path, not on the candidate.  They are computed once
per ``(scope node, path)`` and kept in :attr:`ConditionContext.witnesses`,
each with its subtree span ``[start, end)`` in document order, so the
distance test walks nothing.  The extractor shares one memo across every
candidate of one ``Extractor.extract`` call and drops it when the call
returns.  Documents are not mutated during a call, and the keys are the node
objects themselves, which the memo keeps alive, so a key can never alias
another node.  No witness inside the target needs excluding: such a witness
ends after the target starts, which fails the ``before`` test, and starts
before the target ends, which fails the ``after`` test.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..tree.document import Document
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

#: A context-condition witness: the node, the bindings of its path and its
#: subtree span ``[start, end)`` in document order.
Witness = Tuple[Node, Dict[str, str], int, int]

#: Witnesses per ``(scope node, path)``, shared across the candidates of one
#: extraction.
WitnessMemo = Dict[Tuple[Node, ElementPath], List[Witness]]


@dataclass
class ConditionContext:
    """Everything a condition may need to look at."""

    document: Document
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
        nodes = self.target_members()
        if not nodes:
            return None
        return nodes[0].preorder_index, _subtree_end(nodes[-1])

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


@functools.lru_cache(maxsize=1024)
def lenient_path(path: ElementPath) -> ElementPath:
    """Prefix the path with '?' so it matches anywhere within the subtree.

    Memoised per path, so a ``before`` / ``after`` / ``contains`` / ``subsq``
    scope path is built once per process, not once per call.
    """
    if path.steps and path.steps[0] == "?":
        return path
    return ElementPath(steps=("?",) + path.steps, conditions=path.conditions)


def _subtree_end(node: Node) -> int:
    """One past the last document-order position of ``node``'s subtree.

    The subtree size is ``post - pre + depth + 1``, so this costs O(depth)
    rather than a walk over the subtree.
    """
    return node.postorder_index + node.depth() + 1


def _witnesses_in_scope(context: ConditionContext, path: ElementPath) -> List[Witness]:
    scope = context.scope_node()
    if scope is None:
        return []
    key = (scope, path)
    witnesses = context.witnesses.get(key)
    if witnesses is None:
        witnesses = [
            (node, bindings, node.preorder_index, _subtree_end(node))
            for node, bindings in lenient_path(path).find_targets(scope)
        ]
        context.witnesses[key] = witnesses
    return witnesses


def evaluate_condition(condition: Condition, context: ConditionContext) -> List[Dict[str, object]]:
    """Evaluate one condition.

    Returns the list of possible binding extensions: empty when the condition
    fails, one empty dict for plain success, and one dict per witness for
    binding conditions (``before``/``after``/``contains`` with a ``bind``
    variable) — the extractor backtracks over these alternatives, so later
    pattern-reference or concept conditions can reject one witness and accept
    another.  ``FirstSubtreeCondition`` is handled by the extractor (it is a
    property of the candidate *set*) and always succeeds here.
    """
    if isinstance(condition, BeforeCondition):
        return _evaluate_context_condition(condition, context, before=True)
    if isinstance(condition, AfterCondition):
        return _evaluate_context_condition(condition, context, before=False)
    if isinstance(condition, ContainsCondition):
        return _evaluate_contains(condition, context)
    if isinstance(condition, FirstSubtreeCondition):
        return [{}]
    if isinstance(condition, ConceptCondition):
        return _evaluate_concept(condition, context)
    if isinstance(condition, ComparisonCondition):
        return _evaluate_comparison(condition, context)
    if isinstance(condition, PatternReference):
        return _evaluate_pattern_reference(condition, context)
    raise TypeError(f"unknown condition type {type(condition).__name__}")


# ---------------------------------------------------------------------------
# Context conditions
# ---------------------------------------------------------------------------


def _evaluate_context_condition(
    condition: Union[BeforeCondition, AfterCondition],
    context: ConditionContext,
    before: bool,
) -> List[Dict[str, object]]:
    span = context.target_span()
    if span is None:
        return []
    target_start, target_end = span
    found: List[Dict[str, object]] = []
    for node, bindings, start, end in _witnesses_in_scope(context, condition.path):
        if before:
            if end > target_start:
                continue
            distance = target_start - end
        else:
            if start < target_end:
                continue
            distance = start - target_end
        if condition.min_distance <= distance <= condition.max_distance:
            result: Dict[str, object] = dict(bindings)
            if condition.bind:
                result[condition.bind] = node
            found.append(result)
    if condition.negated:
        return [{}] if not found else []
    return found


# ---------------------------------------------------------------------------
# Internal conditions
# ---------------------------------------------------------------------------


def _evaluate_contains(
    condition: ContainsCondition, context: ConditionContext
) -> List[Dict[str, object]]:
    found: List[Dict[str, object]] = []
    for target_node in context.target_members():
        for node, bindings in lenient_path(condition.path).find_targets(target_node):
            result: Dict[str, object] = dict(bindings)
            if condition.bind:
                result[condition.bind] = node
            found.append(result)
    if condition.negated:
        return [{}] if not found else []
    return found


# ---------------------------------------------------------------------------
# Concept / comparison / pattern-reference conditions
# ---------------------------------------------------------------------------


def _evaluate_concept(
    condition: ConceptCondition, context: ConditionContext
) -> List[Dict[str, object]]:
    value = context.value_of(condition.argument)
    if value is None:
        return [{}] if condition.negated else []
    holds = context.concepts.check(condition.concept, value)
    if condition.negated:
        holds = not holds
    return [{}] if holds else []


def _evaluate_comparison(
    condition: ComparisonCondition, context: ConditionContext
) -> List[Dict[str, object]]:
    left = context.value_of(condition.left)
    right = context.value_of(condition.right)
    if left is None or right is None:
        return []
    left_value, right_value = _coerce_pair(left, right)
    compare = _COMPARISONS.get(condition.operator)
    if compare is None:
        raise ValueError(f"unknown comparison operator {condition.operator!r}")
    try:
        return [{}] if compare(left_value, right_value) else []
    except TypeError:
        return []


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


def _evaluate_pattern_reference(
    condition: PatternReference, context: ConditionContext
) -> List[Dict[str, object]]:
    if context.instance_base is None:
        return []
    value = context.bindings.get(condition.argument)
    if condition.argument == "X" and value is None:
        nodes = context.target_members()
        value = nodes[0] if nodes else None
    holds = isinstance(value, Node) and context.instance_base.node_is_instance_of(
        condition.pattern, value
    )
    if condition.negated:
        holds = not holds
    return [{}] if holds else []
