"""Tests for the shared compiled-program registry (repro/datalog/registry.py)."""

from __future__ import annotations

import pytest

from repro.datalog import (
    EngineOptions,
    PlanRegistry,
    SemiNaiveEngine,
    clear_plan_registry,
    parse_program,
    plan_registry_info,
    program_fingerprint,
    shared_registry,
)

BUILTINS = SemiNaiveEngine.BUILTINS
PRIVATE = EngineOptions(share_plans=False)

REACH = """
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
"""


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_is_rule_order_independent():
    a = parse_program("p(X) :- e(X). q(X) :- f(X).")
    b = parse_program("q(X) :- f(X). p(X) :- e(X).")
    assert program_fingerprint(a) == program_fingerprint(b)


def test_fingerprint_is_content_sensitive():
    a = parse_program("p(X) :- e(X).")
    b = parse_program("p(X) :- f(X).")
    assert program_fingerprint(a) != program_fingerprint(b)
    # The EDB split is part of the identity too.
    c = parse_program("p(X) :- e(X).")
    c.edb_predicates = frozenset(c.edb_predicates | {"extra"})
    assert program_fingerprint(a) != program_fingerprint(c)


# ---------------------------------------------------------------------------
# Registry sharing
# ---------------------------------------------------------------------------


def test_engines_over_equal_programs_share_plan_objects():
    clear_plan_registry()
    first = SemiNaiveEngine(parse_program(REACH))
    second = SemiNaiveEngine(parse_program(REACH))
    for plans_a, plans_b in zip(first._stratum_plans, second._stratum_plans):
        for plan_a, plan_b in zip(plans_a, plans_b):
            assert plan_a is plan_b
    info = plan_registry_info()
    assert info.misses == 1 and info.hits == 1 and info.size == 1


def test_share_plans_false_compiles_privately():
    clear_plan_registry()
    shared = SemiNaiveEngine(parse_program(REACH))
    private = SemiNaiveEngine(parse_program(REACH), options=PRIVATE)
    assert not private.share_plans
    assert shared._stratum_plans[0][0] is not private._stratum_plans[0][0]
    info = plan_registry_info()
    assert info.misses == 1 and info.hits == 0  # the private engine never asked


def test_shared_and_private_engines_compute_equal_fixpoints():
    database = {"edge": {(1, 2), (2, 3), (3, 4), (7, 8)}}
    shared = SemiNaiveEngine(parse_program(REACH)).evaluate(database)
    private = SemiNaiveEngine(parse_program(REACH), options=PRIVATE).evaluate(database)
    assert shared == private
    assert shared["reach"] == {
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (7, 8),
    }


def test_join_order_memos_stay_instance_local():
    clear_plan_registry()
    big = SemiNaiveEngine(parse_program(REACH))
    small = SemiNaiveEngine(parse_program(REACH))
    big.evaluate({"edge": {(i, i + 1) for i in range(64)}})
    # Sharing one plan must not leak the big engine's bucket history into
    # the idle engine, and the shared plan's own default memo stays empty.
    assert any(count > 0 for count in big.plan_memo_counts())
    assert all(count == 0 for count in small.plan_memo_counts())
    assert all(plan.plan_count() == 0 for plan in big._stratum_plans[0])
    small.evaluate({"edge": {(1, 2)}})
    assert any(count > 0 for count in small.plan_memo_counts())


def test_hash_collisions_are_verified_exactly():
    registry = PlanRegistry(capacity=4)
    a = parse_program("p(X) :- e(X).")
    b = parse_program("p(X) :- f(X).")
    compiled_a = registry.compiled(a, BUILTINS)
    compiled_b = registry.compiled(b, BUILTINS)
    assert compiled_a is not compiled_b
    # Equal content always reuses, whatever the hash did.
    assert registry.compiled(parse_program("p(X) :- e(X)."), BUILTINS) is compiled_a


def test_registry_lru_eviction_and_info():
    registry = PlanRegistry(capacity=2)
    programs = [parse_program(f"p(X) :- e{i}(X).") for i in range(3)]
    compiled = [registry.compiled(program, BUILTINS) for program in programs]
    assert len(registry) == 2
    # Program 0 was evicted: a fresh compile, not the old object.
    assert registry.compiled(parse_program("p(X) :- e0(X)."), BUILTINS) is not compiled[0]
    info = registry.info()
    assert info.misses == 4 and info.capacity == 2
    registry.clear()
    assert len(registry) == 0 and registry.info().misses == 0


def test_registry_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PlanRegistry(capacity=0)


def test_duplicate_and_reordered_rules_share_one_compilation():
    # Rule order and duplication are fixpoint-preserving, so programs
    # differing only in those share a compilation (after exact snapshot
    # verification); the fixpoints agree by construction.
    registry = PlanRegistry(capacity=4)
    a = parse_program("p(X) :- e(X). q(X) :- p(X).")
    b = parse_program("q(X) :- p(X). p(X) :- e(X).")
    assert registry.compiled(a, BUILTINS) is registry.compiled(b, BUILTINS)
    database = {"e": {(1,), (2,)}}
    assert (
        SemiNaiveEngine(a).evaluate(database)
        == SemiNaiveEngine(b).evaluate(database)
        == SemiNaiveEngine(a, options=PRIVATE).evaluate(database)
    )


# ---------------------------------------------------------------------------
# Server-scale acceptance: 200 components, 4 programs, 4 compilations
# ---------------------------------------------------------------------------


def test_200_components_over_4_programs_compile_4_times():
    from repro.mdatalog import MonadicProgram
    from repro.server import DatalogQueryComponent
    from repro.tree.builder import tree

    clear_plan_registry()
    programs = [
        MonadicProgram.parse(
            f"hit{i}(X) :- label_b(X).\nhit{i}(Y) :- hit{i}(X), firstchild(X, Y).",
            query_predicates=[f"hit{i}"],
        )
        for i in range(4)
    ]
    document = tree(("doc", ("b", ("a",)), ("a",)))
    components = [
        DatalogQueryComponent(
            f"component-{n}",
            programs[n % 4],
            lambda: document,
            # the generic engine is the registry client
            options=EngineOptions(force_generic=True),
        )
        for n in range(200)
    ]
    info = plan_registry_info()
    assert info.misses == 4, f"expected 4 compilations, saw {info.misses}"
    assert info.hits == 196
    assert info.size >= 4
    # All 200 components still answer correctly and identically per program.
    outputs = [component.process([]) for component in components]
    for n, output in enumerate(outputs):
        assert output.children == outputs[n % 4].children
    assert [record.name for record in outputs[0].children] == ["hit0", "hit0"]


def test_shared_registry_is_a_singleton_view():
    clear_plan_registry()
    SemiNaiveEngine(parse_program(REACH))
    assert shared_registry().info() == plan_registry_info()
    assert plan_registry_info().misses == 1
