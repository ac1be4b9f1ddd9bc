"""Abstract syntax of (function-free) datalog programs.

This is the substrate language of Section 2: terms are either variables or
constants, atoms combine a predicate symbol with a tuple of terms, rules are
Horn clauses (optionally with negated body literals, interpreted under
stratified semantics), and programs are rule collections with a designated
set of extensional (EDB) predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union


@dataclass(frozen=True, order=True)
class Variable:
    """A datalog variable (by convention capitalised in the textual syntax)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Constant:
    """A constant; the payload may be any hashable Python value."""

    value: object

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)


Term = Union[Variable, Constant]


@dataclass(frozen=True)
class Span:
    """A source location (1-based line/column range) of a parsed construct.

    Spans are carried *outside* dataclass equality: parsers attach them to
    frozen AST nodes via :func:`set_span` (a plain ``__dict__`` attribute,
    never a field), so two content-equal rules parsed from different places
    still compare, hash and fingerprint identically — plan-registry sharing
    and analysis caching stay keyed by content alone.
    """

    line: int
    column: int
    end_line: int = 0
    end_column: int = 0

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}"


def set_span(node: object, span: Span) -> None:
    """Attach a source span to an AST node (frozen dataclasses included)."""
    object.__setattr__(node, "_span", span)


def get_span(node: object) -> Optional[Span]:
    """The source span attached to ``node`` by its parser, if any."""
    return getattr(node, "_span", None)


@dataclass(frozen=True)
class Atom:
    """A predicate applied to a tuple of terms."""

    predicate: str
    terms: Tuple[Term, ...]

    def __hash__(self) -> int:
        # Cached: atoms are immutable and hashed hot — program fingerprints
        # (repro/datalog/registry.py) and plan/slot tables hash the same
        # objects over and over, and the generated dataclass hash walks the
        # whole term tuple every call.
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash((self.predicate, self.terms))
            object.__setattr__(self, "_hash", value)
        return value

    def __str__(self) -> str:
        if not self.terms:
            return self.predicate
        inner = ", ".join(str(term) for term in self.terms)
        return f"{self.predicate}({inner})"

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> Set[Variable]:
        return {term for term in self.terms if isinstance(term, Variable)}


@dataclass(frozen=True)
class Literal:
    """A possibly-negated atom occurring in a rule body."""

    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)

    def variables(self) -> Set[Variable]:
        return self.atom.variables()


@dataclass(frozen=True)
class Rule:
    """A datalog rule  head :- body."""

    head: Atom
    body: Tuple[Literal, ...] = ()

    def __hash__(self) -> int:
        # Cached for the same reason as :meth:`Atom.__hash__`: rule hashing
        # is the per-construction cost of registry fingerprints.
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash((self.head, self.body))
            object.__setattr__(self, "_hash", value)
        return value

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body_text = ", ".join(str(literal) for literal in self.body)
        return f"{self.head} :- {body_text}."

    def variables(self) -> Set[Variable]:
        result = set(self.head.variables())
        for literal in self.body:
            result |= literal.variables()
        return result

    def positive_body(self) -> List[Atom]:
        return [literal.atom for literal in self.body if not literal.negated]

    def negative_body(self) -> List[Atom]:
        return [literal.atom for literal in self.body if literal.negated]

    def is_safe(self) -> bool:
        """Safety: every head / negated-body variable occurs in a positive body atom.

        Cached per rule object — every engine construction re-validates its
        program, and with the plan registry sharing compilation the repeated
        safety walk would otherwise dominate construction.
        """
        cached = self.__dict__.get("_safe")
        if cached is not None:
            return cached
        positive_variables: Set[Variable] = set()
        for atom in self.positive_body():
            positive_variables |= atom.variables()
        needed = set(self.head.variables())
        for atom in self.negative_body():
            needed |= atom.variables()
        safe = needed <= positive_variables
        object.__setattr__(self, "_safe", safe)
        return safe


@dataclass
class Program:
    """A datalog program: a list of rules plus an EDB/IDB split.

    ``edb_predicates`` lists the extensional predicates (supplied by the
    database, here: the tree relations); every predicate appearing in a rule
    head is intensional.
    """

    rules: List[Rule] = field(default_factory=list)
    edb_predicates: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        self.rules = list(self.rules)
        self.edb_predicates = frozenset(self.edb_predicates)

    # -- structure ---------------------------------------------------------
    def idb_predicates(self) -> Set[str]:
        return {rule.head.predicate for rule in self.rules}

    def all_predicates(self) -> Set[str]:
        result = set(self.edb_predicates) | self.idb_predicates()
        for rule in self.rules:
            for literal in rule.body:
                result.add(literal.atom.predicate)
        return result

    def size(self) -> int:
        """Program size |P|: total number of atoms occurring in the program."""
        return sum(1 + len(rule.body) for rule in self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)

    # -- validation ----------------------------------------------------------
    def check_safety(self) -> None:
        for rule in self.rules:
            if not rule.is_safe():
                raise ValueError(f"unsafe rule: {rule}")

    def uses_negation(self) -> bool:
        return any(literal.negated for rule in self.rules for literal in rule.body)


Fact = Tuple[object, ...]
Database = Dict[str, Set[Tuple[object, ...]]]
