"""The columnar storage is invisible to the fixpoint (and to every cache).

The engine keeps its facts in columnar relations with full-key hash
indexes, converting the caller's plain ``{predicate: set_of_tuples}``
database on the way in and out.  That conversion must be a pure storage
detail: randomised programs (with recursion, stratified negation, and
comparison builtins) over randomised databases must produce exactly the
fixpoint of the naive nested-loop oracle (``tests/datalog/oracle.py``),
without touching the caller's database, and the
:class:`~repro.datalog.registry.PlanRegistry` — which keys on program
content only — must hand one compilation to engines that differ in every
other option.

The test names date from when the engine had several storage backends;
the properties they pin now hold between the one storage and the oracle.
The program/database generators are shared with
``test_indexed_join_equivalence`` (same schema, same shrinking behaviour).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.datalog import EngineOptions, PlanRegistry, SemiNaiveEngine, parse_program
from tests.datalog import oracle

from .test_indexed_join_equivalence import DOMAIN, databases, programs

# Every engine configuration left once the storage knobs are gone: the
# options that remain change caching, never the answer.
ENGINE_OPTIONS = {
    "default": EngineOptions(),
    "small_cache": EngineOptions(cache_size=1),
}


@settings(max_examples=60, deadline=None)
@given(program=programs(), database=databases())
def test_columnar_tuple_and_nested_loop_fixpoints_agree(program, database):
    # The columnar fixpoint, handed back as plain sets of tuples, is the
    # oracle's — and converting into columnar storage leaves the caller's
    # database exactly as it was.
    snapshot = {predicate: set(facts) for predicate, facts in database.items()}
    expected = oracle.evaluate(program, snapshot)
    for options in ENGINE_OPTIONS.values():
        result = SemiNaiveEngine(program, options=options).evaluate(database)
        assert result == expected
        assert all(
            isinstance(fact, tuple) for facts in result.values() for fact in facts
        )
        assert database == snapshot


@settings(max_examples=25, deadline=None)
@given(program=programs(), database=databases())
def test_plan_registry_shares_one_compilation_across_storages(program, database):
    # Compiled programs are keyed by content fingerprint only — engines
    # differing in every remaining option re-use the *same* compiled plans
    # (one registry miss) and still compute the oracle's fixpoint.
    registry = PlanRegistry()
    engines = [
        SemiNaiveEngine(program, options=options, registry=registry)
        for options in ENGINE_OPTIONS.values()
    ]
    first = engines[0]
    if first._stratum_plans:
        for engine in engines[1:]:
            assert engine._stratum_plans[0][0] is first._stratum_plans[0][0]
    assert registry.info().misses == 1
    expected = oracle.evaluate(program, database)
    for engine in engines:
        assert engine.evaluate(database) == expected


@settings(max_examples=30, deadline=None)
@given(database=st.sets(st.tuples(DOMAIN, DOMAIN), min_size=0, max_size=12))
def test_transitive_closure_with_negation_agrees_across_storages(database):
    program = parse_program(
        """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        far(X) :- node(X), not reach(X, X).
        node(X) :- edge(X, Y).
        node(Y) :- edge(X, Y).
        """
    )
    edb = {"edge": set(database)}
    expected = oracle.evaluate(program, edb)
    for options in ENGINE_OPTIONS.values():
        assert SemiNaiveEngine(program, options=options).evaluate(edb) == expected
    result = Session().query(program, edb)
    assert {
        predicate: set(result.evaluation.query(predicate))
        for predicate in result.evaluation.predicates()
    } == expected
