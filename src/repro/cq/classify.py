"""The tractability dichotomy for conjunctive queries over trees.

As summarised in Section 4 of the paper (full treatment in [18]): a class of
conjunctive queries over unary relations plus a set F of axis relations is
polynomial iff F is contained in one of the subset-maximal classes

    {child+, child*},
    {child, nextsibling, nextsibling+, nextsibling*},
    {following}

and NP-complete otherwise.  :func:`classify` reports which side of the
dichotomy the axis set of a concrete query falls on.  Note that the
*individual query* may still be easy (e.g. when acyclic); the classification
is about the query class CQ[F].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Union

from .acyclic import is_acyclic
from .ast import CQ_AXES, TRACTABLE_AXIS_CLASSES, ConjunctiveQuery


@dataclass(frozen=True)
class Classification:
    """The dichotomy verdict for an axis set / query."""

    axis_set: FrozenSet[str]
    tractable: bool
    witness_class: Optional[FrozenSet[str]]
    acyclic: Optional[bool] = None

    @property
    def complexity(self) -> str:
        return "PTIME" if self.tractable else "NP-complete"

    def __str__(self) -> str:
        axes = ", ".join(sorted(self.axis_set)) or "(no axes)"
        return f"CQ[{axes}]: {self.complexity}"


def classify_axes(axes: Iterable[str]) -> Classification:
    """Classify a set of axis relation names."""
    axis_set = frozenset(axes)
    unknown = axis_set - set(CQ_AXES)
    if unknown:
        raise ValueError(f"unknown axis relations: {sorted(unknown)}")
    for tractable_class in TRACTABLE_AXIS_CLASSES:
        if axis_set <= tractable_class:
            return Classification(axis_set, True, tractable_class)
    return Classification(axis_set, False, None)


def classify(query_or_axes: Union[ConjunctiveQuery, Iterable[str]]) -> Classification:
    """Classify a query (by its axis set) or an explicit axis set."""
    if isinstance(query_or_axes, ConjunctiveQuery):
        verdict = classify_axes(query_or_axes.axis_relations())
        return Classification(
            verdict.axis_set,
            verdict.tractable,
            verdict.witness_class,
            acyclic=is_acyclic(query_or_axes),
        )
    return classify_axes(query_or_axes)
