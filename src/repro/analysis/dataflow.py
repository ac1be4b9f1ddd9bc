"""Binding-pattern (adornment) dataflow analysis over datalog programs.

The optimizer half of the static analyzer: starting from the *query*
predicates (demanded with every argument free — a query enumerates its
relation), propagate bound/free annotations sideways through each rule
body in exactly the join order the engine will execute, and demand the
adornments this induces on IDB body occurrences, recursively, to fixpoint.
This is classic sideways information passing (SIPS) as in magic-sets
literature, specialised to the engine's own join-order policy:

* The per-rule literal order is :func:`repro.datalog.plan.greedy_join_order`
  — the *same function* the runtime planner uses — fed with size estimates
  instead of live relation sizes.  The adornments reported here are
  therefore the binding patterns the compiled :class:`~repro.datalog.plan.
  RulePlan` steps probe with when live sizes rank the relations as the
  estimates do, which is what makes the analysis usable as an index
  advisor (:mod:`repro.analysis.cost`).
* An argument position is *bound* at a body occurrence iff its term is a
  constant or a variable bound by the head adornment or an earlier literal
  in the order.  Builtins and negated literals never bind anything (the
  engine evaluates them as filters), so only positive relational literals
  participate.
* Demand is a worklist over ``(predicate, adornment)`` pairs.  Recursive
  programs reach a fixpoint because the adornment lattice per predicate is
  finite (``2^arity`` patterns).

Everything here is pure and deterministic: rules are processed in program
order, demands in sorted order, and the output tuples are sorted — the
``explain()`` surface renders them verbatim into golden-tested snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.ast import Constant, Program, Rule, Variable
from ..datalog.plan import greedy_join_order
from .datalog_checks import BUILTIN_PREDICATES

#: A binding pattern: one character per argument, ``b`` (bound) / ``f`` (free).
Adornment = str


def all_free(arity: int) -> Adornment:
    """The adornment of a top-level query: every argument free."""
    return "f" * arity


def bound_positions(adornment: Adornment) -> Tuple[int, ...]:
    """The 0-based argument positions an adornment marks bound."""
    return tuple(i for i, c in enumerate(adornment) if c == "b")


@dataclass(frozen=True)
class AdornedLiteral:
    """One body occurrence, annotated with its binding pattern.

    ``position`` is the literal's index in the original rule body (the same
    index :class:`~repro.datalog.plan._JoinStep.position` uses), so explain
    output and compiled plans line up step for step.  ``kind`` is
    ``"relation"`` for positive relational literals (join steps),
    ``"builtin"`` / ``"negation"`` for filters.
    """

    position: int
    predicate: str
    adornment: Adornment
    kind: str = "relation"

    @property
    def bound(self) -> Tuple[int, ...]:
        return bound_positions(self.adornment)

    def __str__(self) -> str:
        marker = {"relation": "", "builtin": "?", "negation": "not "}[self.kind]
        return f"{marker}{self.predicate}^{self.adornment}"


@dataclass(frozen=True)
class AdornedRule:
    """One rule specialised to one head adornment.

    ``order`` lists the positive relational body positions in the join
    order the engine's greedy planner picks for these size estimates;
    ``literals`` are the corresponding :class:`AdornedLiteral` records in
    that order, followed by the filter literals (builtins / negations) with
    the adornment they hold once the join has bound everything it can.
    """

    rule: Rule
    head_adornment: Adornment
    order: Tuple[int, ...]
    literals: Tuple[AdornedLiteral, ...]

    @property
    def head_predicate(self) -> str:
        return self.rule.head.predicate

    def join_steps(self) -> Tuple[AdornedLiteral, ...]:
        """Only the relational literals, in join order."""
        return tuple(lit for lit in self.literals if lit.kind == "relation")

    def __str__(self) -> str:
        body = ", ".join(str(lit) for lit in self.literals)
        return f"{self.head_predicate}^{self.head_adornment} :- {body}"


@dataclass(frozen=True)
class AdornedProgram:
    """The result of :func:`adorn`: every demanded rule specialisation.

    ``demanded`` is the sorted set of ``(predicate, adornment)`` pairs the
    query predicates transitively require; ``rules`` holds one
    :class:`AdornedRule` per (rule, demanded head adornment) pair, in
    (program order, adornment order).
    """

    rules: Tuple[AdornedRule, ...]
    demanded: Tuple[Tuple[str, Adornment], ...]
    query_predicates: Tuple[str, ...]

    def index_advice(self) -> Dict[str, Tuple[Tuple[int, ...], ...]]:
        """Predicate → sorted bound-position key tuples its joins probe.

        Every non-empty ``bound`` of a relational adorned literal is an
        access path the compiled plans will demand of
        :class:`~repro.datalog.columns.ColumnarRelation`.
        """
        advice: Dict[str, Set[Tuple[int, ...]]] = {}
        for adorned in self.rules:
            for literal in adorned.join_steps():
                if literal.bound:
                    advice.setdefault(literal.predicate, set()).add(literal.bound)
        return {
            predicate: tuple(sorted(keys))
            for predicate, keys in sorted(advice.items())
        }


def _literal_adornment(terms: Sequence[object], seen: Set[Variable]) -> Adornment:
    return "".join(
        "b" if isinstance(term, Constant) or term in seen else "f" for term in terms
    )


def adorn(
    program: Program,
    query_predicates: Optional[Sequence[str]] = None,
    *,
    sizes: Optional[Mapping[str, float]] = None,
    builtins: FrozenSet[str] = BUILTIN_PREDICATES,
) -> AdornedProgram:
    """Adorn ``program`` by demand from ``query_predicates``.

    ``query_predicates`` defaults to every IDB predicate (matching the
    engines, whose ``evaluate`` materialises the full fixpoint).  ``sizes``
    maps predicate names to estimated relation sizes steering the greedy
    join order; omitted predicates (and an omitted mapping) default to a
    uniform size, which reduces the order to "most bound terms first,
    original body order on ties".
    """
    idb = {rule.head.predicate for rule in program.rules}
    if query_predicates is None:
        queries: Tuple[str, ...] = tuple(sorted(idb))
    else:
        queries = tuple(sorted(set(query_predicates) & idb))
    size_of = dict(sizes) if sizes else {}

    by_head: Dict[str, List[Rule]] = {}
    for rule in program.rules:
        by_head.setdefault(rule.head.predicate, []).append(rule)

    demanded: Set[Tuple[str, Adornment]] = set()
    worklist: List[Tuple[str, Adornment]] = []
    for predicate in queries:
        rules = by_head.get(predicate)
        if not rules:
            continue
        pattern = (predicate, all_free(rules[0].head.arity))
        demanded.add(pattern)
        worklist.append(pattern)

    adorned_rules: List[AdornedRule] = []
    while worklist:
        predicate, head_adornment = worklist.pop(0)
        for rule in by_head.get(predicate, ()):
            if rule.head.arity != len(head_adornment):
                continue  # arity clash is D003's problem, not ours
            adorned = _adorn_rule(rule, head_adornment, size_of, builtins)
            adorned_rules.append(adorned)
            for literal in adorned.join_steps():
                if literal.predicate not in idb:
                    continue
                pattern = (literal.predicate, literal.adornment)
                if pattern not in demanded:
                    demanded.add(pattern)
                    worklist.append(pattern)

    # Deterministic output order: program rule order, then head adornment
    # (rules hash by content, so textual duplicates share an index — the
    # stable sort keeps their relative order).
    rule_index = {rule: index for index, rule in enumerate(program.rules)}
    adorned_rules.sort(key=lambda a: (rule_index[a.rule], a.head_adornment))
    return AdornedProgram(
        rules=tuple(adorned_rules),
        demanded=tuple(sorted(demanded)),
        query_predicates=queries,
    )


def _adorn_rule(
    rule: Rule,
    head_adornment: Adornment,
    size_of: Mapping[str, float],
    builtins: FrozenSet[str],
) -> AdornedRule:
    body = rule.body
    relational = [
        position
        for position, literal in enumerate(body)
        if not literal.negated and literal.atom.predicate not in builtins
    ]
    position_sizes = {
        position: float(size_of.get(body[position].atom.predicate, 1.0))
        for position in relational
    }
    seen: Set[Variable] = {
        term
        for index, term in enumerate(rule.head.terms)
        if head_adornment[index] == "b" and isinstance(term, Variable)
    }
    order = greedy_join_order(body, relational, None, position_sizes, bound=seen)

    literals: List[AdornedLiteral] = []
    for position in order:
        atom = body[position].atom
        adornment = _literal_adornment(atom.terms, seen)
        literals.append(AdornedLiteral(position, atom.predicate, adornment))
        for term in atom.terms:
            if isinstance(term, Variable):
                seen.add(term)
    # Filters carry the adornment they hold *after* the full join — the
    # engine hoists them to the earliest step where all slots are bound,
    # but "which positions end up bound" is order-independent.
    for position, literal in enumerate(body):
        if position in relational:
            continue
        atom = literal.atom
        kind = "negation" if literal.negated else "builtin"
        literals.append(
            AdornedLiteral(position, atom.predicate, _literal_adornment(atom.terms, seen), kind)
        )
    return AdornedRule(
        rule=rule,
        head_adornment=head_adornment,
        order=tuple(order),
        literals=tuple(literals),
    )
