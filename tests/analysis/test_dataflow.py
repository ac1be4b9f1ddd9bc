"""Binding-pattern (adornment) dataflow: :mod:`repro.analysis.dataflow`."""

from __future__ import annotations

from repro.analysis.dataflow import (
    AdornedProgram,
    adorn,
    all_free,
    bound_positions,
)
from repro.datalog import parse_program

TC = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    """
)


def test_adornment_helpers():
    assert all_free(3) == "fff"
    assert bound_positions("bfb") == (0, 2)
    assert bound_positions("ff") == ()


def test_transitive_closure_adornments_follow_the_join_order():
    adorned = adorn(TC, sizes={"e": 10.0, "tc": 1000.0})
    rendered = [str(rule) for rule in adorned.rules]
    # The greedy order starts with the smaller relation (e), whose
    # variables then bind the recursive tc occurrence on Z.  Output is in
    # (program rule order, head adornment order).
    assert rendered == [
        "tc^bf :- e^bf",
        "tc^ff :- e^ff",
        "tc^bf :- e^bf, tc^bf",
        "tc^ff :- e^ff, tc^bf",
    ]


def test_demand_reaches_a_fixpoint_on_recursion():
    adorned = adorn(TC, sizes={"e": 10.0, "tc": 1000.0})
    assert adorned.demanded == (("tc", "bf"), ("tc", "ff"))
    assert adorned.query_predicates == ("tc",)
    # Finite lattice: each (rule, adornment) pair appears exactly once.
    keys = [(r.rule, r.head_adornment) for r in adorned.rules]
    assert len(keys) == len(set(keys))


def test_query_predicates_restrict_the_demand():
    program = parse_program(
        """
        p(X) :- a(X).
        q(X) :- b(X).
        """
    )
    adorned = adorn(program, query_predicates=["p"])
    assert adorned.query_predicates == ("p",)
    assert {r.head_predicate for r in adorned.rules} == {"p"}


def test_constants_and_head_bindings_count_as_bound():
    program = parse_program('p(X) :- e(1, X), f(X, Y).')
    adorned = adorn(program)
    [rule] = adorned.rules
    steps = rule.join_steps()
    assert steps[0].predicate == "e"
    assert steps[0].adornment == "bf"  # the constant 1 is bound
    assert steps[1].predicate == "f"
    assert steps[1].adornment == "bf"  # X was bound by the e step


def test_builtins_and_negation_are_filters_not_join_steps():
    program = parse_program(
        """
        p(X) :- e(X, Y), not q(Y), lt(X, Y).
        q(X) :- f(X).
        """
    )
    adorned = adorn(program, query_predicates=["p"])
    [rule] = [rule for rule in adorned.rules if rule.head_predicate == "p"]
    kinds = [literal.kind for literal in rule.literals]
    assert kinds == ["relation", "negation", "builtin"]
    # Filters hold the post-join adornment: both X and Y are bound by e.
    negation, builtin = rule.literals[1], rule.literals[2]
    assert negation.adornment == "b"
    assert builtin.adornment == "bb"
    assert str(negation) == "not q^b"
    assert str(builtin) == "?lt^bb"
    # Negated IDB occurrences do not create demand.
    assert ("q", "b") not in adorned.demanded


def test_index_advice_reports_sorted_bound_position_keys():
    adorned = adorn(TC, sizes={"e": 10.0, "tc": 1000.0})
    assert adorned.index_advice() == {"e": ((0,),), "tc": ((0,),)}


def test_adornment_is_deterministic():
    first = adorn(TC, sizes={"e": 10.0, "tc": 1000.0})
    second = adorn(TC, sizes={"e": 10.0, "tc": 1000.0})
    assert isinstance(first, AdornedProgram)
    assert [str(r) for r in first.rules] == [str(r) for r in second.rules]
    assert first.demanded == second.demanded
