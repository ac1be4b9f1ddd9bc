"""Reference interpreter: naive Elog extraction for differential tests.

The equivalence suite checks :class:`repro.elog.Extractor` against this
interpreter.  It keeps, in their simplest form, the two costs the extractor
avoids:

* every round re-applies every rule to every parent instance until a round
  adds nothing, with no change-driven skipping;
* a ``before`` / ``after`` condition rescans its whole scope for witnesses
  once per candidate, excludes witnesses inside the target explicitly and
  walks subtrees to measure distances, with no witness memo.

Candidate generation, path matching, the other condition kinds and the
instance base are shared with the extractor; the path matcher has its own
oracle in ``tests/properties/test_cq_and_elog_properties.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.elog import Extractor
from repro.elog.ast import AfterCondition, BeforeCondition, Condition
from repro.elog.conditions import ConditionContext, evaluate_condition
from repro.elog.epath import ElementPath
from repro.elog.extractor import _Extraction, _rule_plans
from repro.elog.instance_base import PatternInstanceBase
from repro.tree import Document


class ReferenceExtractor(Extractor):
    """An :class:`Extractor` with naive rounds and naive context conditions."""

    def extract(
        self,
        document: Optional[Document] = None,
        documents: Optional[Sequence[Document]] = None,
        url: Optional[str] = None,
    ) -> PatternInstanceBase:
        run = _Extraction()
        for given in list(documents or []) + ([document] if document is not None else []):
            instance = run.base.add_document_root(given)
            if given.url:
                run.fetched_urls[given.url] = instance
        if url is not None:
            assert self._fetch_document(url, run, parent=None, propagate=True)
        for _ in range(self.max_rounds):
            changed = False
            for plan in _rule_plans(self.program):
                # The rule's raw conditions go to _satisfy below, which
                # evaluates context conditions without the witness memo
                # (and firstsubtree as always true, as the extractor does).
                raw = plan._replace(checks=plan.rule.conditions)
                if self._apply_rule(raw, run):
                    changed = True
            if not changed:
                break
        return run.base

    def _satisfy(
        self,
        conditions: Sequence[Condition],
        position: int,
        context: ConditionContext,
    ) -> Optional[Dict[str, object]]:
        if position == len(conditions):
            return dict(context.bindings)
        saved = context.bindings
        for extension in _evaluate(conditions[position], context):
            context.bindings = {**saved, **extension}
            result = self._satisfy(conditions, position + 1, context)
            if result is not None:
                context.bindings = saved
                return result
        context.bindings = saved
        return None


def _evaluate(condition: Condition, context: ConditionContext) -> List[Dict[str, object]]:
    if isinstance(condition, (BeforeCondition, AfterCondition)):
        return _context_condition(condition, context, isinstance(condition, BeforeCondition))
    return evaluate_condition(condition, context)


def _context_condition(condition, context: ConditionContext, before: bool):
    members = context.target_members()
    if not members:
        return []
    target_start = members[0].preorder_index
    target_end = members[-1].preorder_index + members[-1].subtree_size()
    inside = {node for member in members for node in member.iter_preorder()}
    scope = context.scope_node()
    path = condition.path
    if path.steps[0] != "?":
        path = ElementPath(("?",) + path.steps, path.conditions)
    witnesses = path.find_targets(scope) if scope is not None else []
    found: List[Dict[str, object]] = []
    for node, bindings in witnesses:
        if node in inside:
            continue
        if before:
            witness_end = node.preorder_index + node.subtree_size()
            if witness_end > target_start:
                continue
            distance = target_start - witness_end
        else:
            if node.preorder_index < target_end:
                continue
            distance = node.preorder_index - target_end
        if condition.min_distance <= distance <= condition.max_distance:
            result: Dict[str, object] = dict(bindings)
            if condition.bind:
                result[condition.bind] = node
            found.append(result)
    if condition.negated:
        return [{}] if not found else []
    return found
