"""Property: Session-built evaluators == directly constructed engines.

The façade must be a pure routing layer: for every backend reachable from
:class:`Session`, the fixpoint computed through ``Session.query`` equals
the one computed by constructing the engine by hand — over randomised
programs with recursion, stratified negation and comparison builtins
(semi-naive), randomised documents (monadic, both the ground pipeline and
the forced-generic fallback), and automata compilations.  The session's
private plan registry, evaluator memoisation and uniform result wrappers
must all be invisible to the results.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro import EngineOptions, Session
from repro.automata import compiled_select, leaf_selector_automaton
from repro.datalog import PlanRegistry, SemiNaiveEngine
from repro.mdatalog import MonadicProgram, MonadicTreeEvaluator

from tests.properties.test_indexed_join_equivalence import databases, programs
from tests.properties.test_invariants import LABELS, documents

MDATALOG_TEXT = """
mark(X) :- label_a(X).
mark(X) :- mark(X0), firstchild(X0, X).
mark(X) :- mark(X0), nextsibling(X0, X).
deep(X) :- label_b(B), child(B, X), label_c(X).
"""


@settings(max_examples=40, deadline=None)
@given(program=programs(), database=databases())
def test_session_semi_naive_matches_direct_engine(program, database):
    session = Session()
    direct = SemiNaiveEngine(program, registry=PlanRegistry())
    expected = direct.fixpoint(database)
    result = session.query(program, database)
    assert result.predicates() == frozenset(
        predicate for predicate in expected.predicates() if expected.query(predicate)
    )
    for predicate in expected.predicates():
        assert result.tuples(predicate) == expected.query(predicate)
    # Second pass through the memoised engine stays equal (no state leaks).
    again = session.query(program, database)
    for predicate in expected.predicates():
        assert again.tuples(predicate) == expected.query(predicate)


@settings(max_examples=25, deadline=None)
@given(document=documents())
def test_session_monadic_matches_direct_evaluator_on_both_pipelines(document):
    program = MonadicProgram.parse(MDATALOG_TEXT)
    for options in (EngineOptions(), EngineOptions(force_generic=True)):
        session = Session(options)
        direct = MonadicTreeEvaluator(program, options=options, registry=PlanRegistry())
        result = session.query(program, document)
        expected = direct.evaluate(document)
        for predicate in program.query_predicates:
            assert [n.preorder_index for n in result.nodes(predicate)] == [
                n.preorder_index for n in expected[predicate]
            ]


@settings(max_examples=25, deadline=None)
@given(document=documents())
def test_session_automata_matches_compiled_select_and_the_automaton(document):
    automaton = leaf_selector_automaton(LABELS)
    session = Session()
    result = session.query(automaton, document, labels=LABELS)
    via_bridge = compiled_select(automaton, document, labels=LABELS)
    direct = automaton.select(document)
    assert [n.preorder_index for n in result.nodes("selected")] == [
        n.preorder_index for n in via_bridge
    ]
    assert {n.preorder_index for n in result.nodes("selected")} == {
        n.preorder_index for n in direct
    }


@settings(max_examples=20, deadline=None)
@given(document=documents())
def test_monadic_negation_reaches_the_generic_fallback_equivalently(document):
    # Negation forces the generic engine inside MonadicTreeEvaluator; the
    # session-routed result must match the direct, privately compiled one.
    program = MonadicProgram.parse(
        """
        marked(X) :- label_a(X).
        plain(X) :- label_b(X), not marked(X).
        """,
        query_predicates=["plain"],
    )
    session = Session()
    direct = MonadicTreeEvaluator(program, registry=PlanRegistry())
    assert not direct.uses_ground_pipeline
    result = session.query(program, document)
    assert [n.preorder_index for n in result.nodes("plain")] == [
        n.preorder_index for n in direct.evaluate(document)["plain"]
    ]
