"""Differential tests: Theorem 2.4's implicit-grounding pipeline against the
generic semi-naive engine, and Theorem 2.5's compiled automata against
their direct runs.

Every program of the catalogue is TMNF-rewritable, so
``MonadicTreeEvaluator`` runs it on the trigger-table worklist; the same
program under ``EngineOptions(force_generic=True)`` is the reference.  The
documents include the shapes the tree functions are most likely to get
wrong: a single node (root = leaf, no siblings), deep chains (only
firstchild/lastchild steps) and wide fans (long nextsibling runs).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.automata import (
    compile_automaton,
    label_reachability_automaton,
    leaf_selector_automaton,
)
from repro.datalog import EngineOptions
from repro.mdatalog import MonadicProgram, MonadicTreeEvaluator
from repro.tree import Document, Node, random_tree

LABELS = ("a", "b", "c")
GENERIC = EngineOptions(force_generic=True)

CATALOGUE = {
    "form1": """
        p(X) :- label_a(X).
        q(X) :- p(X).
        """,
    "form2_firstchild": """
        down(X) :- label_a(X0), firstchild(X0, X).
        up(X) :- label_a(X0), firstchild(X, X0).
        """,
    "form2_nextsibling": """
        right(X) :- label_b(X0), nextsibling(X0, X).
        left(X) :- label_b(X0), nextsibling(X, X0).
        """,
    "form2_lastchild": """
        down(X) :- label_c(X0), lastchild(X0, X).
        up(X) :- label_c(X0), lastchild(X, X0).
        """,
    "form2_recursive": """
        italic(X) :- label_a(X).
        italic(X) :- italic(X0), firstchild(X0, X).
        italic(X) :- italic(X0), nextsibling(X0, X).
        """,
    "form3": """
        both(X) :- label_a(X), leaf(X).
        twice(X) :- both(X), both(X).
        edges(X) :- firstsibling(X), lastsibling(X).
        """,
    "mutual_recursion": """
        even(X) :- root(X).
        odd(X) :- even(X0), firstchild(X0, X).
        even(X) :- odd(X0), firstchild(X0, X).
        odd(X) :- odd(X0), nextsibling(X0, X).
        even(X) :- even(X0), nextsibling(X0, X).
        """,
    "child_elimination": """
        parent_of_a(X) :- child(X, Y), label_a(Y).
        child_of_b(X) :- label_b(Y), child(Y, X).
        grandchild(X) :- label_c(Y), child(Y, Z), child(Z, X).
        """,
    "disconnected_guard": """
        guarded(X) :- label_a(X), label_c(Y), leaf(Y).
        anywhere(X) :- leaf(X), root(Y).
        """,
    "absent_label": """
        ghost(X) :- label_zzz(X).
        haunted(X) :- ghost(X0), firstchild(X0, X).
        mixed(X) :- label_a(X), ghost(X).
        """,
    "long_body": """
        pattern(X) :- label_a(X), firstchild(X, Y), label_b(Y),
                      nextsibling(Y, Z), leaf(Z).
        """,
}
PROGRAMS = {name: MonadicProgram.parse(text) for name, text in CATALOGUE.items()}


@st.composite
def random_documents(draw, max_nodes: int = 40):
    """Arbitrary small trees, the 1-node tree included."""
    node_budget = draw(st.integers(min_value=1, max_value=max_nodes))

    def build(budget):
        node = Node(draw(st.sampled_from(LABELS)))
        remaining = budget - 1
        while remaining > 0 and draw(st.booleans()):
            child_budget = draw(st.integers(min_value=1, max_value=remaining))
            child, used = build(child_budget)
            node.append_child(child)
            remaining -= used
        return node, budget - remaining

    root, _ = build(node_budget)
    return Document(root)


@st.composite
def chains(draw):
    """A path of up to 60 nodes: every node an only child."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=60))
    root = node = Node(labels[0])
    for label in labels[1:]:
        child = Node(label)
        node.append_child(child)
        node = child
    return Document(root)


@st.composite
def fans(draw):
    """A root with up to 60 leaf children."""
    root = Node(draw(st.sampled_from(LABELS)))
    for label in draw(st.lists(st.sampled_from(LABELS), max_size=60)):
        root.append_child(Node(label))
    return Document(root)


documents = st.one_of(random_documents(), chains(), fans())


def _indexes(nodes):
    return [node.preorder_index for node in nodes]


def test_catalogue_runs_on_the_ground_pipeline():
    for name, program in PROGRAMS.items():
        assert MonadicTreeEvaluator(program).uses_ground_pipeline, name
        assert not MonadicTreeEvaluator(program, options=GENERIC).uses_ground_pipeline


@given(documents, st.sampled_from(sorted(PROGRAMS)))
@settings(max_examples=150, deadline=None)
def test_ground_pipeline_selects_what_the_generic_engine_selects(document, name):
    program = PROGRAMS[name]
    ground = MonadicTreeEvaluator(program)
    generic = MonadicTreeEvaluator(program, options=GENERIC)
    for predicate in sorted(program.idb_predicates()):
        assert _indexes(ground.select(document, predicate)) == _indexes(
            generic.select(document, predicate)
        ), (name, predicate)
    evaluated = ground.evaluate(document)
    for predicate, nodes in generic.evaluate(document).items():
        assert _indexes(evaluated[predicate]) == _indexes(nodes), (name, predicate)


AUTOMATA = {
    "leaf_selector": leaf_selector_automaton(LABELS),
    "reaches_b": label_reachability_automaton("b", LABELS),
}
COMPILED = {
    name: MonadicTreeEvaluator(compile_automaton(automaton, LABELS))
    for name, automaton in AUTOMATA.items()
}


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(sorted(AUTOMATA)),
)
@settings(max_examples=40, deadline=None)
def test_compiled_automaton_selects_what_the_automaton_selects(
    size, seed, max_children, name
):
    document = random_tree(size, labels=LABELS, max_children=max_children, seed=seed)
    evaluator = COMPILED[name]
    assert evaluator.uses_ground_pipeline
    assert _indexes(evaluator.select(document, "selected")) == _indexes(
        AUTOMATA[name].select(document)
    )


@given(st.one_of(chains(), fans()))
@settings(max_examples=30, deadline=None)
def test_compiled_automaton_on_chains_and_fans(document):
    evaluator = COMPILED["leaf_selector"]
    assert _indexes(evaluator.select(document, "selected")) == _indexes(
        AUTOMATA["leaf_selector"].select(document)
    )
