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
    shared_registry,
)
from repro.datalog.registry import program_snapshot
from tests.datalog.introspection import plan_count

BUILTINS = SemiNaiveEngine.BUILTINS

REACH = """
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
"""


# ---------------------------------------------------------------------------
# Program keys
# ---------------------------------------------------------------------------


def test_fingerprint_is_rule_order_independent():
    a = parse_program("p(X) :- e(X). q(X) :- f(X).")
    b = parse_program("q(X) :- f(X). p(X) :- e(X).")
    assert program_snapshot(a) == program_snapshot(b)


def test_fingerprint_is_content_sensitive():
    a = parse_program("p(X) :- e(X).")
    b = parse_program("p(X) :- f(X).")
    assert program_snapshot(a) != program_snapshot(b)
    # The EDB split is part of the identity too.
    c = parse_program("p(X) :- e(X).")
    c.edb_predicates = frozenset(c.edb_predicates | {"extra"})
    assert program_snapshot(a) != program_snapshot(c)
    registry = PlanRegistry()
    assert registry.compiled(a, BUILTINS) is not registry.compiled(c, BUILTINS)


def test_a_different_builtin_table_gets_its_own_compilation():
    registry = PlanRegistry()
    program = parse_program("p(X) :- e(X, Y), lt(X, Y).")
    custom = dict(BUILTINS, lt=lambda a, b: a > b)
    shared = registry.compiled(program, BUILTINS)
    assert registry.compiled(program, custom) is not shared
    assert registry.compiled(program, dict(BUILTINS)) is shared  # same functions


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


def test_a_fresh_registry_compiles_privately():
    clear_plan_registry()
    shared = SemiNaiveEngine(parse_program(REACH))
    private = SemiNaiveEngine(parse_program(REACH), registry=PlanRegistry())
    assert shared._stratum_plans[0][0] is not private._stratum_plans[0][0]
    info = plan_registry_info()
    assert info.misses == 1 and info.hits == 0  # the private engine never asked


def test_shared_and_private_engines_compute_equal_fixpoints():
    database = {"edge": {(1, 2), (2, 3), (3, 4), (7, 8)}}
    shared = SemiNaiveEngine(parse_program(REACH)).evaluate(database)
    private = SemiNaiveEngine(parse_program(REACH), registry=PlanRegistry()).evaluate(
        database
    )
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
    assert all(plan_count(plan) == 0 for plan in big._stratum_plans[0])
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
        == SemiNaiveEngine(a, registry=PlanRegistry()).evaluate(database)
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


def test_200_components_built_from_8_threads_compile_4_times(monkeypatch):
    import threading

    from repro.datalog import registry as registry_module
    from repro.mdatalog import MonadicProgram
    from repro.server import DatalogQueryComponent
    from repro.tree.builder import tree

    registry = PlanRegistry()
    programs = [
        MonadicProgram.parse(
            f"hit{i}(X) :- label_b(X).\nhit{i}(Y) :- hit{i}(X), firstchild(X, Y).",
            query_predicates=[f"hit{i}"],
        )
        for i in range(4)
    ]
    document = tree(("doc", ("b", ("a",)), ("a",)))
    barrier = threading.Barrier(8)
    components = [None] * 200
    compilations = []

    class CountingCompiledProgram(registry_module.CompiledProgram):
        __slots__ = ()

        def __init__(self, program, builtins):
            compilations.append(program)
            super().__init__(program, builtins)

    monkeypatch.setattr(registry_module, "CompiledProgram", CountingCompiledProgram)

    def build_slice(offset: int) -> None:
        barrier.wait(timeout=10)
        for n in range(offset, 200, 8):
            components[n] = DatalogQueryComponent(
                f"component-{n}",
                programs[n % 4],
                lambda: document,
                options=EngineOptions(force_generic=True),
                registry=registry,
            )

    threads = [threading.Thread(target=build_slice, args=(k,)) for k in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    info = registry.info()
    assert info.misses == 4 == len(compilations)
    assert info.hits == 196
    outputs = [component.process([]) for component in components]
    for n, output in enumerate(outputs):
        assert output.children == outputs[n % 4].children


def test_shared_registry_is_a_singleton_view():
    clear_plan_registry()
    SemiNaiveEngine(parse_program(REACH))
    assert shared_registry().info() == plan_registry_info()
    assert plan_registry_info().misses == 1
