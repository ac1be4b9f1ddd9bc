"""The engine computes the reference oracle's fixpoints.

Randomised datalog programs (with recursion, stratified negation, and
comparison builtins) over randomised extensional databases must produce
exactly the fixpoint of the naive nested-loop oracle
(``tests/datalog/oracle.py``) — directly, through the public
:class:`repro.api.Session` surface, and out of the fixpoint cache.  The
same holds for *where* the plans come from: engines sharing one
compilation through a registry must agree with privately compiled engines
(each over a fresh ``PlanRegistry()``), and plans
compiled once stay correct across databases.

The program/database generators are shared with the other property
suites (same schema, same shrinking behaviour).  Each example draws its
values from one pool — small integers, or strings full of quotes,
backslashes, newlines, braces and Python fragments — so constants reach
the generated executors in every shape a rule can spell, and comparison
builtins never compare a string with an integer.  An arity-3 relation
gives composite-key probes and repeated variables inside one atom, and
every EDB relation may hold a few facts of the wrong arity.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.datalog import PlanRegistry, SemiNaiveEngine, parse_program
from repro.datalog.ast import Atom, Constant, Literal, Program, Rule, Variable
from tests.datalog import oracle

# A small fixed schema keeps the generator simple while still exercising
# joins over mixed arities, recursion through IDB predicates, and negation.
EDB_ARITIES = {"e1": 1, "e2": 2, "e3": 2, "e4": 3}
IDB_ARITIES = {"p0": 1, "p1": 2, "p2": 1}
IDB_ORDER = ["p0", "p1", "p2"]  # negation only "downwards" => stratifiable
VARIABLES = [Variable(name) for name in ("X", "Y", "Z", "W")]
BUILTINS = ["lt", "le", "eq", "neq", "gt", "ge"]

DOMAIN = st.integers(min_value=0, max_value=5)
STRINGS = (
    'a"b',
    "back\\slash",
    "line\nbreak",
    "{brace}",
    '"); import os #',
    "it's",
)
#: One value pool per example, shared by the program and the database.
VALUES = st.shared(
    st.sampled_from((tuple(range(6)), STRINGS)), key="value-pool"
).flatmap(st.sampled_from)


def _terms(draw, arity, variable_pool, values=VALUES):
    terms = []
    for _ in range(arity):
        if draw(st.booleans()) or not variable_pool:
            if draw(st.integers(min_value=0, max_value=3)) == 0:
                terms.append(Constant(draw(values)))
                continue
        terms.append(draw(st.sampled_from(variable_pool or VARIABLES)))
    return tuple(terms)


@st.composite
def rules(draw, edb_arities=EDB_ARITIES, values=VALUES):
    """One rule over the EDB schema ``edb_arities`` and the IDB layers,
    with constants drawn from ``values``."""
    head_predicate = draw(st.sampled_from(IDB_ORDER))
    head_index = IDB_ORDER.index(head_predicate)

    # 1-4 positive relational literals over EDB predicates and IDB
    # predicates at or below the head's layer (self-recursion allowed); the
    # layering keeps every generated program stratifiable even once negation
    # on strictly lower layers is added below.
    body: list = []
    positive_variables: set = set()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        predicate = draw(
            st.sampled_from(sorted(edb_arities) + IDB_ORDER[: head_index + 1])
        )
        arity = edb_arities.get(predicate) or IDB_ARITIES[predicate]
        atom = Atom(predicate, _terms(draw, arity, VARIABLES, values))
        body.append(Literal(atom))
        positive_variables |= atom.variables()

    bound_pool = sorted(positive_variables, key=str)

    # Optional negated literal over EDB or a strictly lower IDB predicate,
    # with variables drawn from the positive body (safety).
    if bound_pool and draw(st.booleans()):
        candidates = sorted(edb_arities) + IDB_ORDER[:head_index]
        predicate = draw(st.sampled_from(candidates))
        arity = edb_arities.get(predicate) or IDB_ARITIES[predicate]
        atom = Atom(predicate, _terms(draw, arity, bound_pool, values))
        if atom.variables() <= positive_variables:
            body.append(Literal(atom, negated=True))

    # Optional comparison builtin over bound variables / pool constants.
    if bound_pool and draw(st.booleans()):
        builtin = draw(st.sampled_from(BUILTINS))
        atom = Atom(builtin, _terms(draw, 2, bound_pool, values))
        if atom.variables() <= positive_variables:
            body.append(Literal(atom, negated=draw(st.booleans())))

    # Safe head: every head variable occurs in the positive body.
    head_arity = IDB_ARITIES[head_predicate]
    if bound_pool:
        head_terms = tuple(
            draw(st.sampled_from(bound_pool)) for _ in range(head_arity)
        )
    else:
        head_terms = tuple(Constant(draw(values)) for _ in range(head_arity))
    return Rule(Atom(head_predicate, head_terms), tuple(body))


@st.composite
def programs(draw, edb_arities=EDB_ARITIES, values=VALUES):
    rule_list = draw(st.lists(rules(edb_arities, values), min_size=1, max_size=6))
    return Program(rule_list, edb_predicates=frozenset(edb_arities))


@st.composite
def databases(draw):
    database = {}
    for predicate, arity in EDB_ARITIES.items():
        facts = draw(st.sets(st.tuples(*([VALUES] * arity)), max_size=8))
        # Stray facts of a neighbouring arity must match no atom.
        stray = st.sampled_from((arity - 1, arity + 1)).flatmap(
            lambda width: st.tuples(*([VALUES] * width))
        )
        database[predicate] = facts | draw(st.sets(stray, max_size=2))
    return database


@settings(max_examples=60, deadline=None)
@given(program=programs(), database=databases())
def test_planned_indexed_and_nested_loop_fixpoints_agree(program, database):
    assert SemiNaiveEngine(program).evaluate(database) == oracle.evaluate(
        program, database
    )


@settings(max_examples=40, deadline=None)
@given(program=programs(), database=databases())
def test_shared_registry_fixpoints_match_private_compilation(program, database):
    # Two engines over one registry share the compiled plans (the second
    # reuses the first's — same objects, one registry miss); both must
    # compute exactly the fixpoint of a privately compiled engine
    # (a fresh registry), i.e. cross-engine plan sharing is invisible to
    # evaluation.
    registry = PlanRegistry()
    shared_first = SemiNaiveEngine(program, registry=registry)
    shared_second = SemiNaiveEngine(program, registry=registry)
    private = SemiNaiveEngine(program, registry=PlanRegistry())
    if shared_second._stratum_plans:
        assert (
            shared_second._stratum_plans[0][0] is shared_first._stratum_plans[0][0]
        )
    assert registry.info().misses == 1
    result = shared_first.evaluate(database)
    assert result == shared_second.evaluate(database)
    assert result == private.evaluate(database)
    assert result == oracle.evaluate(program, database)


@settings(max_examples=30, deadline=None)
@given(program=programs(), database=databases())
def test_plan_reuse_across_databases_stays_equivalent(program, database):
    # One engine (compiled plans reused and bucket-memoised across calls)
    # must agree with the oracle on every database, including after
    # evaluating a different database in between.
    engine = SemiNaiveEngine(program)
    warmup = {predicate: set(list(facts)[:1]) for predicate, facts in database.items()}
    engine.evaluate(warmup)
    assert engine.evaluate(database) == oracle.evaluate(program, database)


@settings(max_examples=25, deadline=None)
@given(program=programs(), database=databases())
def test_engine_matches_oracle_through_session(program, database):
    result = Session().query(program, database)
    answers = {
        predicate: result.evaluation.query(predicate)
        for predicate in result.evaluation.predicates()
    }
    expected = oracle.evaluate(program, database)
    assert answers == {predicate: frozenset(facts) for predicate, facts in expected.items()}


@settings(max_examples=25, deadline=None)
@given(program=programs(), database=databases())
def test_fixpoint_cache_entries_match_the_oracle(program, database):
    # The cache keys on database content and stores the plain fixpoint: a
    # re-evaluation must hit and return the stored entry itself, and that
    # entry must be the oracle's fixpoint.
    engine = SemiNaiveEngine(program)
    first = engine.fixpoint(database)
    before = engine.fixpoint_cache_info()
    again = engine.fixpoint(database)
    after = engine.fixpoint_cache_info()
    assert again is first
    assert after.hits == before.hits + 1
    assert first.facts() == oracle.evaluate(program, database)


@settings(max_examples=30, deadline=None)
@given(database=st.sets(st.tuples(DOMAIN, DOMAIN), min_size=0, max_size=12))
def test_transitive_closure_agrees_on_random_graphs(database):
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
    assert SemiNaiveEngine(program).evaluate(edb) == oracle.evaluate(program, edb)
