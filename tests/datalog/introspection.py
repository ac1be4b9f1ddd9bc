"""Counts the datalog tests read off engine internals.

``plan_count`` is how many join orders a rule plan has compiled into its
default memo, ``index_count`` how many access paths (probed positions and
arity) a relation has materialised.  Only tests ask for them.
"""

from __future__ import annotations

from repro.datalog import ColumnarRelation, RulePlan


def plan_count(plan: RulePlan) -> int:
    return len(plan._plans)


def index_count(relation: ColumnarRelation) -> int:
    return len(relation._indexes)
