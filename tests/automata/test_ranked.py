"""Tests for ranked bottom-up tree automata on the binary encoding."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import (
    BOTTOM,
    NondeterministicTreeAutomaton,
    label_reachability_automaton,
    leaf_selector_automaton,
)
from repro.tree import random_tree, tree


def test_label_reachability_accepts_iff_label_present():
    automaton = label_reachability_automaton("price", labels=["a", "b", "price"])
    with_price = tree(("a", ("b",), ("a", ("price",))))
    without_price = tree(("a", ("b",), ("a", ("b",))))
    assert automaton.accepts(with_price)
    assert not automaton.accepts(without_price)


def test_label_reachability_on_random_trees_matches_direct_check():
    automaton = label_reachability_automaton("c", labels=["a", "b", "c", "d"])
    for seed in range(6):
        document = random_tree(60, labels=("a", "b", "c", "d"), seed=seed)
        assert automaton.accepts(document) == bool(document.find_all("c"))


def test_leaf_selector_selects_exactly_unranked_leaves():
    labels = ("a", "b", "c")
    automaton = leaf_selector_automaton(labels)
    for seed in range(4):
        document = random_tree(80, labels=labels, seed=seed)
        selected = {node.preorder_index for node in automaton.select(document)}
        expected = {node.preorder_index for node in document if not node.children}
        assert selected == expected


def test_run_returns_empty_on_undefined_transition():
    automaton = label_reachability_automaton("x", labels=["x"])
    document = tree(("unknown_label", ("x",)))
    # the label "unknown_label" has no transition and no wildcard
    assert automaton.run(document) == {}
    assert not automaton.accepts(document)
    assert automaton.select(document) == []


def test_wildcard_transitions_used_as_fallback():
    from repro.automata.ranked import TreeAutomaton

    transitions = {}
    for left in (BOTTOM, "q", "s"):
        for right in (BOTTOM, "q", "s"):
            transitions[("*", left, right)] = "q"
            transitions[("special", left, right)] = "s" if left == BOTTOM else "q"
    automaton = TreeAutomaton(transitions=transitions, accepting={"q", "s"}, selecting={"s"})
    document = tree(("a", ("special",), ("special", ("b",))))
    selected = automaton.select(document)
    assert [node.label for node in selected] == ["special"]
    assert len(selected) == 1  # only the childless special node


def test_nondeterministic_acceptance_and_determinization():
    # NTA guessing whether a subtree contains label "t": states {yes, no}
    transitions = {}
    for label in ("a", "t"):
        for left in (BOTTOM, "yes", "no"):
            for right in (BOTTOM, "yes", "no"):
                seen = label == "t" or left == "yes" or right == "yes"
                transitions[(label, left, right)] = frozenset({"yes"} if seen else {"no"})
    nta = NondeterministicTreeAutomaton(transitions=transitions, accepting={"yes"})
    with_t = tree(("a", ("a",), ("t",)))
    without_t = tree(("a", ("a",), ("a",)))
    assert nta.accepts(with_t)
    assert not nta.accepts(without_t)

    deterministic = nta.determinize()
    for seed in range(4):
        document = random_tree(40, labels=("a", "t"), seed=seed)
        assert deterministic.accepts(document) == nta.accepts(document)


_NTA_STATES = (BOTTOM, "p", "q")


@st.composite
def _nondeterministic_automata(draw):
    """Random NTAs over labels a, b and the wildcard, with states p and q."""
    transitions = {}
    for label in ("a", "b", "*"):
        for left in _NTA_STATES:
            for right in _NTA_STATES:
                targets = draw(st.frozensets(st.sampled_from(("p", "q"))))
                if targets:
                    transitions[(label, left, right)] = targets
    accepting = draw(st.sets(st.sampled_from(("p", "q")), min_size=1))
    return NondeterministicTreeAutomaton(transitions=transitions, accepting=accepting)


@settings(max_examples=60, deadline=None)
@given(
    _nondeterministic_automata(),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)
def test_determinization_preserves_the_language_of_random_automata(nta, size, seed):
    """The subset construction accepts exactly the trees some run of the
    NTA accepts; label c has only the wildcard transitions."""
    document = random_tree(size, labels=("a", "b", "c"), seed=seed)
    assert nta.determinize().accepts(document) == nta.accepts(document)


def test_states_and_labels_accessors():
    automaton = label_reachability_automaton("x", labels=["x", "y"])
    assert "seen" in automaton.states()
    assert BOTTOM in automaton.states()
    assert automaton.labels() >= {"x", "y"}
