"""Monadic datalog programs over tree structures.

A monadic datalog program (Section 2.3) is a datalog program all of whose
intensional predicates are unary.  Over the tree signature tau_ur it captures
exactly the unary MSO queries (Theorem 2.5) while remaining evaluable in time
O(|P| * |dom|) (Theorem 2.4).

:class:`MonadicProgram` wraps a generic :class:`~repro.datalog.ast.Program`
with monadicity/signature validation and convenience accessors for
"information extraction functions" — the designated query predicates.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

from ..datalog.ast import Program, Rule
from ..datalog.parser import parse_rules
from ..datalog.tree_edb import TAU_UR_BINARY, TAU_UR_UNARY

# Binary relations a monadic program over trees may use in rule bodies.
ALLOWED_BINARY = frozenset(TAU_UR_BINARY) | frozenset({"child"})


class MonadicityError(ValueError):
    """Raised when a program violates the monadic datalog restrictions."""


class MonadicProgram:
    """A validated monadic datalog program over the tree signature.

    Parameters
    ----------
    rules:
        The datalog rules.
    query_predicates:
        The intensional predicates that define information extraction
        functions.  Intensional predicates not listed here are auxiliary
        (Section 2.1).  When omitted, every intensional predicate is
        considered a query predicate.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        query_predicates: Optional[Iterable[str]] = None,
    ) -> None:
        self.rules: List[Rule] = list(rules)
        self._validate()
        idb = {rule.head.predicate for rule in self.rules}
        if query_predicates is None:
            self.query_predicates: FrozenSet[str] = frozenset(idb)
        else:
            requested = frozenset(query_predicates)
            unknown = requested - idb
            if unknown:
                raise MonadicityError(
                    f"query predicates {sorted(unknown)} are not defined by any rule"
                )
            self.query_predicates = requested

    # ------------------------------------------------------------------
    @classmethod
    def parse(
        cls,
        text: str,
        query_predicates: Optional[Iterable[str]] = None,
    ) -> "MonadicProgram":
        """Parse program text (datalog syntax) into a monadic program."""
        return cls(parse_rules(text), query_predicates=query_predicates)

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        idb = {rule.head.predicate for rule in self.rules}
        for rule in self.rules:
            if rule.head.arity != 1:
                raise MonadicityError(
                    f"head of rule {rule} is not unary (monadic datalog requires unary IDB)"
                )
            if not rule.is_safe():
                raise MonadicityError(f"unsafe rule: {rule}")
            for literal in rule.body:
                predicate = literal.atom.predicate
                arity = literal.atom.arity
                if predicate in idb:
                    if arity != 1:
                        raise MonadicityError(
                            f"intensional predicate {predicate} used with arity {arity} in {rule}"
                        )
                elif arity == 2:
                    if predicate not in ALLOWED_BINARY:
                        raise MonadicityError(
                            f"unknown binary relation {predicate!r} in {rule}; "
                            f"allowed: {sorted(ALLOWED_BINARY)}"
                        )
                elif arity > 2:
                    raise MonadicityError(
                        f"atom {literal.atom} has arity {arity}; trees provide only "
                        "unary and binary relations"
                    )

    # ------------------------------------------------------------------
    def idb_predicates(self) -> Set[str]:
        return {rule.head.predicate for rule in self.rules}

    def edb_predicates(self) -> Set[str]:
        idb = self.idb_predicates()
        result: Set[str] = set()
        for rule in self.rules:
            for literal in rule.body:
                if literal.atom.predicate not in idb:
                    result.add(literal.atom.predicate)
        return result

    def uses_negation(self) -> bool:
        return any(literal.negated for rule in self.rules for literal in rule.body)

    def size(self) -> int:
        """|P|: total number of atoms in the program."""
        return sum(1 + len(rule.body) for rule in self.rules)

    def to_datalog_program(self) -> Program:
        """View as a generic datalog :class:`Program` (EDB = tree relations)."""
        edb = frozenset(
            set(TAU_UR_UNARY)
            | set(TAU_UR_BINARY)
            | {"child"}
            | {
                literal.atom.predicate
                for rule in self.rules
                for literal in rule.body
                if literal.atom.predicate.startswith("label_")
            }
        )
        return Program(rules=list(self.rules), edb_predicates=edb)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MonadicProgram(rules={len(self.rules)}, queries={sorted(self.query_predicates)})"


def italic_program() -> MonadicProgram:
    """The program of Example 2.1: select nodes rendered in italics."""
    return MonadicProgram.parse(
        """
        italic(X) :- label_i(X).
        italic(X) :- italic(X0), firstchild(X0, X).
        italic(X) :- italic(X0), nextsibling(X0, X).
        """,
        query_predicates=["italic"],
    )
