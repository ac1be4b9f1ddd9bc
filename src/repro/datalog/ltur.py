"""Linear-time evaluation of ground (propositional) Horn programs.

Theorem 2.4 of the paper derives the O(|P| * |dom|) bound for monadic datalog
over trees by (1) grounding the program in linear time — possible because the
tau_ur relations have bidirectional functional dependencies — and (2)
evaluating the resulting ground program in linear time with a unit-resolution
algorithm in the style of Minoux's LTUR [29].

This module is the standalone propositional solver for explicitly given
ground programs: atoms are interned as integers, each rule keeps a counter
of not-yet-satisfied body atoms, and a worklist propagates newly derived
atoms.  Total work is proportional to the number of occurrences of atoms in
the ground program.

The monadic tree pipeline (:mod:`repro.mdatalog.evaluator`) does not build
a ground program at all: it runs the same propagation implicitly, reading
each TMNF rule's one ground instance per node off the tree's functional
maps, with one truth table per predicate.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

GroundRule = Tuple[Hashable, Tuple[Hashable, ...]]  # (head, body)


class GroundHornSolver:
    """LTUR-style solver for ground Horn programs.

    Usage::

        solver = GroundHornSolver()
        solver.add_rule("p@3", ("q@1", "r@2"))
        solver.add_fact("q@1")
        ...
        true_atoms = solver.solve()
    """

    def __init__(self) -> None:
        self._atom_ids: Dict[Hashable, int] = {}
        self._atoms: List[Hashable] = []
        # For each rule: remaining-count and head atom id.
        self._rule_remaining: List[int] = []
        self._rule_head: List[int] = []
        # For each atom id: list of rule indexes in whose body it occurs.
        self._occurrences: Dict[int, List[int]] = defaultdict(list)
        self._facts: List[int] = []

    # ------------------------------------------------------------------
    def _intern(self, atom: Hashable) -> int:
        identifier = self._atom_ids.get(atom)
        if identifier is None:
            identifier = len(self._atoms)
            self._atom_ids[atom] = identifier
            self._atoms.append(atom)
        return identifier

    def add_fact(self, atom: Hashable) -> None:
        self._facts.append(self._intern(atom))

    def add_rule(self, head: Hashable, body: Sequence[Hashable]) -> None:
        if not body:
            self.add_fact(head)
            return
        rule_index = len(self._rule_head)
        self._rule_head.append(self._intern(head))
        self._rule_remaining.append(len(body))
        for atom in body:
            self._occurrences[self._intern(atom)].append(rule_index)

    def add_rules(self, rules: Iterable[GroundRule]) -> None:
        for head, body in rules:
            self.add_rule(head, body)

    # ------------------------------------------------------------------
    def solve(self) -> Set[Hashable]:
        """Return the set of atoms in the least model."""
        derived = [False] * len(self._atoms)
        remaining = list(self._rule_remaining)
        worklist: List[int] = []

        for atom_id in self._facts:
            if not derived[atom_id]:
                derived[atom_id] = True
                worklist.append(atom_id)

        while worklist:
            atom_id = worklist.pop()
            for rule_index in self._occurrences.get(atom_id, ()):  # each occurrence once
                remaining[rule_index] -= 1
                if remaining[rule_index] == 0:
                    head_id = self._rule_head[rule_index]
                    if not derived[head_id]:
                        derived[head_id] = True
                        worklist.append(head_id)

        return {self._atoms[index] for index, flag in enumerate(derived) if flag}

    # ------------------------------------------------------------------
    def atom_count(self) -> int:
        return len(self._atoms)

    def rule_count(self) -> int:
        return len(self._rule_head)


def solve_ground_program(
    rules: Iterable[GroundRule], facts: Iterable[Hashable] = ()
) -> Set[Hashable]:
    """One-shot helper around :class:`GroundHornSolver`."""
    solver = GroundHornSolver()
    solver.add_rules(rules)
    for fact in facts:
        solver.add_fact(fact)
    return solver.solve()
