"""Reference oracle: naive stratified nested-loop datalog evaluation.

The property suites check :class:`repro.datalog.SemiNaiveEngine` against
this evaluator.  It is deliberately the simplest correct strategy: every
round re-joins every rule of the stratum by scanning whole relations with
dictionary substitutions, until a round derives nothing new.  It shares
nothing with the engine beyond the AST, stratification and the error type
— no plans, no indexes, no delta bookkeeping.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datalog.ast import Atom, Constant, Database, Literal, Program, Rule, Term, Variable
from repro.datalog.engine import EvaluationError
from repro.datalog.stratify import stratify

Fact = Tuple[object, ...]
Substitution = Dict[Variable, object]

BUILTINS = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "neq": operator.ne,
}


def match_atom(atom: Atom, fact: Fact, substitution: Substitution) -> Optional[Substitution]:
    """``substitution`` extended so that ``atom`` matches ``fact``, or None."""
    if len(atom.terms) != len(fact):
        return None
    extended = dict(substitution)
    for term, value in zip(atom.terms, fact):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        elif extended.setdefault(term, value) != value:
            return None
    return extended


def ground_terms(terms: Sequence[Term], substitution: Substitution) -> Fact:
    values: List[object] = []
    for term in terms:
        if isinstance(term, Constant):
            values.append(term.value)
        elif term in substitution:
            values.append(substitution[term])
        else:
            raise EvaluationError(f"unbound variable {term} in rule head")
    return tuple(values)


def _is_filter(literal: Literal) -> bool:
    return literal.negated or literal.atom.predicate in BUILTINS


def _holds(literal: Literal, substitution: Substitution, facts: Database) -> bool:
    values = ground_terms(literal.atom.terms, substitution)
    predicate = literal.atom.predicate
    if predicate in BUILTINS:
        holds = BUILTINS[predicate](*values)
    else:
        holds = values in facts.get(predicate, ())
    return holds != literal.negated


def derive(rule: Rule, facts: Database) -> List[Fact]:
    """Every head fact one application of ``rule`` to ``facts`` yields."""
    substitutions: List[Substitution] = [{}]
    for literal in rule.body:
        if _is_filter(literal):
            continue
        relation = facts.get(literal.atom.predicate, ())
        substitutions = [
            extended
            for substitution in substitutions
            for fact in relation
            if (extended := match_atom(literal.atom, fact, substitution)) is not None
        ]
    filters = [literal for literal in rule.body if _is_filter(literal)]
    return [
        ground_terms(rule.head.terms, substitution)
        for substitution in substitutions
        if all(_holds(literal, substitution, facts) for literal in filters)
    ]


def evaluate(program: Program, database: Database) -> Database:
    """The least fixpoint of ``program`` over ``database``, stratum by stratum.

    Like the engine, the result holds every input predicate (empty ones
    included) plus each derived predicate that received at least one fact.
    """
    facts = {predicate: set(extension) for predicate, extension in database.items()}
    for stratum in stratify(program):
        changed = True
        while changed:
            changed = False
            for rule in stratum:
                for fact in derive(rule, facts):
                    relation = facts.setdefault(rule.head.predicate, set())
                    if fact not in relation:
                        relation.add(fact)
                        changed = True
    return facts
