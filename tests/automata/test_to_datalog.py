"""Experiment E5: tree automata compiled to monadic datalog agree with the
direct automaton run (Theorem 2.5, automata -> datalog direction)."""

from __future__ import annotations

from repro.automata import (
    compile_automaton,
    label_reachability_automaton,
    leaf_selector_automaton,
    state_predicate,
)
from repro.mdatalog import MonadicTreeEvaluator
from repro.tree import random_tree, tree


def selected_indexes(program, document):
    evaluator = MonadicTreeEvaluator(program)
    return {node.preorder_index for node in evaluator.select(document, "selected")}


def test_state_predicate_names():
    assert state_predicate("q1") == "state_q1"


def test_leaf_selector_compiles_to_equivalent_program():
    labels = ("a", "b", "c")
    automaton = leaf_selector_automaton(labels)
    program = compile_automaton(automaton, labels)
    for seed in range(5):
        document = random_tree(60, labels=labels, seed=seed)
        expected = {node.preorder_index for node in automaton.select(document)}
        assert selected_indexes(program, document) == expected


def test_compiled_program_respects_acceptance():
    """Selection must be empty when the automaton rejects the document."""
    labels = ("a", "b", "marker")
    reach = label_reachability_automaton("marker", labels=labels)
    # select every node of documents that contain a marker; reject otherwise
    reach.selecting = {"seen", "clean"}
    program = compile_automaton(reach, labels)
    accepted = tree(("a", ("b",), ("marker",)))
    rejected = tree(("a", ("b",), ("b",)))
    assert selected_indexes(program, accepted) == {
        node.preorder_index for node in reach.select(accepted)
    }
    assert len(selected_indexes(program, accepted)) == len(accepted)
    assert selected_indexes(program, rejected) == set()
    assert reach.select(rejected) == []


def test_compiled_program_uses_linear_pipeline():
    labels = ("a", "b")
    program = compile_automaton(leaf_selector_automaton(labels), labels)
    assert MonadicTreeEvaluator(program).uses_ground_pipeline


def test_compile_automaton_without_selecting_states_selects_nothing():
    labels = ("a", "b")
    automaton = label_reachability_automaton("a", labels=labels)
    program = compile_automaton(automaton, labels)
    document = random_tree(30, labels=labels, seed=1)
    assert selected_indexes(program, document) == set()


def test_a_second_compiled_evaluator_reuses_the_first_ones_compilation():
    from repro.automata.to_datalog import compiled_evaluator
    from repro.datalog import EngineOptions, PlanRegistry

    labels = ("a", "b")
    automaton = leaf_selector_automaton(labels)
    document = random_tree(30, labels=labels, seed=2)
    expected = {node.preorder_index for node in automaton.select(document)}
    # Ground pipeline: the second evaluator shares the first one's TMNF
    # rewrite and trigger table.
    first = compiled_evaluator(automaton, labels)
    second = compiled_evaluator(automaton, labels)
    assert second is not first
    assert second._triggers is first._triggers
    # Generic engine: the second evaluator's rule plans are a registry hit.
    registry = PlanRegistry()
    generic = EngineOptions(force_generic=True)
    evaluators = [
        compiled_evaluator(automaton, labels, options=generic, registry=registry)
        for _ in range(2)
    ]
    assert registry.info().misses == 1
    assert registry.info().hits == 1
    for evaluator in (first, second, *evaluators):
        selected = evaluator.select(document, "selected")
        assert {node.preorder_index for node in selected} == expected
