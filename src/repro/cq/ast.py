"""Conjunctive queries over trees.

Section 4 of the paper discusses the complexity of conjunctive queries whose
binary relations are the tree axes

    Child, Child+, Child*, Nextsibling, Nextsibling+, Nextsibling*, Following

together with unary (label) relations.  [18] (PODS'04, same proceedings)
establishes the dichotomy: a class CQ[F] is polynomial iff F is contained in
one of

    {child+, child*},
    {child, nextsibling, nextsibling+, nextsibling*},
    {following}

and NP-complete otherwise.

This module defines the query representation; evaluation lives in
:mod:`repro.cq.evaluator` (generic), :mod:`repro.cq.acyclic` (Yannakakis) and
:mod:`repro.cq.classify` (the dichotomy classifier).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

# The axis relations of the CQ setting (see repro.tree.axes.holds).
CQ_AXES = (
    "child",
    "child+",
    "child*",
    "nextsibling",
    "nextsibling+",
    "nextsibling*",
    "following",
)

# The subset-maximal polynomial axis classes of [18].
TRACTABLE_AXIS_CLASSES: Tuple[FrozenSet[str], ...] = (
    frozenset({"child+", "child*"}),
    frozenset({"child", "nextsibling", "nextsibling+", "nextsibling*"}),
    frozenset({"following"}),
)


@dataclass(frozen=True)
class LabelAtom:
    """A unary atom  label(variable)  constraining the variable's node label."""

    variable: str
    label: str

    def __str__(self) -> str:
        return f"label_{self.label}({self.variable})"


@dataclass(frozen=True)
class AxisAtom:
    """A binary atom  relation(source, target)  over one of the CQ axes."""

    relation: str
    source: str
    target: str

    def __post_init__(self) -> None:
        if self.relation not in CQ_AXES:
            raise ValueError(
                f"unknown axis relation {self.relation!r}; expected one of {CQ_AXES}"
            )

    def __str__(self) -> str:
        return f"{self.relation}({self.source}, {self.target})"


@dataclass
class ConjunctiveQuery:
    """A conjunctive query over trees.

    ``free_variables`` lists the output variables (none = Boolean query, one
    = unary query, etc.).
    """

    label_atoms: List[LabelAtom] = field(default_factory=list)
    axis_atoms: List[AxisAtom] = field(default_factory=list)
    free_variables: Tuple[str, ...] = ()

    # -- construction helpers --------------------------------------------
    def add_label(self, variable: str, label: str) -> "ConjunctiveQuery":
        self.label_atoms.append(LabelAtom(variable, label))
        return self

    def add_axis(self, relation: str, source: str, target: str) -> "ConjunctiveQuery":
        self.axis_atoms.append(AxisAtom(relation, source, target))
        return self

    # -- structure -----------------------------------------------------------
    def variables(self) -> Set[str]:
        result: Set[str] = set(self.free_variables)
        for atom in self.label_atoms:
            result.add(atom.variable)
        for atom in self.axis_atoms:
            result.add(atom.source)
            result.add(atom.target)
        return result

    def axis_relations(self) -> Set[str]:
        return {atom.relation for atom in self.axis_atoms}

    def labels_for(self, variable: str) -> List[str]:
        return [atom.label for atom in self.label_atoms if atom.variable == variable]

    def size(self) -> int:
        return len(self.label_atoms) + len(self.axis_atoms)

    def adjacency(self) -> Dict[str, List[Tuple[str, AxisAtom]]]:
        """Variable adjacency induced by the axis atoms (undirected view)."""
        result: Dict[str, List[Tuple[str, AxisAtom]]] = {v: [] for v in self.variables()}
        for atom in self.axis_atoms:
            result[atom.source].append((atom.target, atom))
            result[atom.target].append((atom.source, atom))
        return result

    def is_connected(self) -> bool:
        variables = self.variables()
        if not variables:
            return True
        adjacency = self.adjacency()
        start = next(iter(variables))
        seen = {start}
        frontier = [start]
        while frontier:
            variable = frontier.pop()
            for neighbour, _ in adjacency[variable]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return seen == variables

    def is_tree_shaped(self) -> bool:
        """True iff the axis-atom graph is connected and acyclic (a join tree)."""
        variables = self.variables()
        return self.is_connected() and len(self.axis_atoms) == max(len(variables) - 1, 0)

    def __str__(self) -> str:
        head = f"q({', '.join(self.free_variables)})"
        body = ", ".join(
            [str(atom) for atom in self.label_atoms] + [str(atom) for atom in self.axis_atoms]
        )
        return f"{head} :- {body}."


def query(
    free: Sequence[str] = (),
    labels: Sequence[Tuple[str, str]] = (),
    axes: Sequence[Tuple[str, str, str]] = (),
) -> ConjunctiveQuery:
    """Compact constructor used by tests and benchmarks.

    ``labels`` is a sequence of (variable, label) pairs and ``axes`` a
    sequence of (relation, source, target) triples.
    """
    result = ConjunctiveQuery(free_variables=tuple(free))
    for variable, label in labels:
        result.add_label(variable, label)
    for relation, source, target in axes:
        result.add_axis(relation, source, target)
    return result
