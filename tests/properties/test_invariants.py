"""Property-based tests (hypothesis) on the core data structures and on the
cross-formalism equivalences of Figure 6."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.datalog import EngineOptions, parse_program, query_program, tree_database
from repro.mdatalog import MonadicProgram, MonadicTreeEvaluator, is_tmnf, to_tmnf
from repro.tree import Document, Node, decode, encode, to_sexpr
from repro.tree.encoding import encoding_round_trips
from repro.xpath import CoreXPathEvaluator, FullXPathEvaluator, NaiveXPathEvaluator

LABELS = ("a", "b", "c")
GENERIC = EngineOptions(force_generic=True)


# ---------------------------------------------------------------------------
# Random document strategy
# ---------------------------------------------------------------------------


@st.composite
def documents(draw, max_nodes: int = 40):
    """Random small documents built from nested label lists."""
    node_budget = draw(st.integers(min_value=1, max_value=max_nodes))

    def build(budget):
        label = draw(st.sampled_from(LABELS))
        node = Node(label)
        remaining = budget - 1
        while remaining > 0 and draw(st.booleans()):
            child_budget = draw(st.integers(min_value=1, max_value=remaining))
            child, used = build(child_budget)
            node.append_child(child)
            remaining -= used
        return node, budget - remaining

    root, _ = build(node_budget)
    return Document(root)


# ---------------------------------------------------------------------------
# Tree invariants
# ---------------------------------------------------------------------------


@given(documents())
@settings(max_examples=40, deadline=None)
def test_document_order_is_a_total_order_consistent_with_structure(document):
    nodes = document.dom
    assert [node.preorder_index for node in nodes] == list(range(len(nodes)))
    for node in nodes:
        for child in node.children:
            assert document.precedes(node, child)
        if node.next_sibling is not None:
            assert document.precedes(node, node.next_sibling)


@given(documents())
@settings(max_examples=40, deadline=None)
def test_firstchild_nextsibling_encoding_round_trips(document):
    assert encoding_round_trips(document)
    assert to_sexpr(decode(encode(document))) == to_sexpr(document)


@given(documents())
@settings(max_examples=40, deadline=None)
def test_leaf_lastsibling_partition_invariants(document):
    for node in document:
        assert node.is_leaf == (len(node.children) == 0)
        if node.parent is not None:
            assert node.is_last_sibling == (node.parent.children[-1] is node)
        else:
            assert not node.is_last_sibling


# ---------------------------------------------------------------------------
# Monadic datalog: pipelines and rewritings agree
# ---------------------------------------------------------------------------


MDATALOG_TEXT = """
mark(X) :- label_a(X).
mark(X) :- mark(X0), firstchild(X0, X).
mark(X) :- mark(X0), nextsibling(X0, X).
deep(X) :- label_b(B), child(B, X), label_c(X).
"""


@given(documents())
@settings(max_examples=25, deadline=None)
def test_ground_pipeline_equals_generic_engine(document):
    program = MonadicProgram.parse(MDATALOG_TEXT)
    fast = MonadicTreeEvaluator(program).evaluate(document)
    slow = MonadicTreeEvaluator(program, options=GENERIC).evaluate(document)
    for predicate in program.query_predicates:
        assert [n.preorder_index for n in fast[predicate]] == [
            n.preorder_index for n in slow[predicate]
        ]


@given(documents())
@settings(max_examples=25, deadline=None)
def test_tmnf_rewriting_preserves_query_answers(document):
    program = MonadicProgram.parse(MDATALOG_TEXT)
    rewritten = to_tmnf(program)
    assert is_tmnf(rewritten)
    original = MonadicTreeEvaluator(program, options=GENERIC).evaluate(document)
    after = MonadicTreeEvaluator(rewritten).evaluate(document)
    for predicate in program.query_predicates:
        assert {n.preorder_index for n in original[predicate]} == {
            n.preorder_index for n in after[predicate]
        }


@given(documents())
@settings(max_examples=25, deadline=None)
def test_monadic_datalog_agrees_with_generic_datalog_over_tree_edb(document):
    program_text = "hit(X) :- label_b(X0), firstchild(X0, X)."
    monadic = MonadicProgram.parse(program_text, query_predicates=["hit"])
    selected = {
        node.preorder_index
        for node in MonadicTreeEvaluator(monadic).select(document, "hit")
    }
    generic = query_program(parse_program(program_text), tree_database(document), "hit")
    assert selected == {value[0] for value in generic}


# ---------------------------------------------------------------------------
# XPath evaluators agree
# ---------------------------------------------------------------------------

XPATH_QUERIES = (
    "//a",
    "//a/b",
    "//a[b]",
    "//a[b and not(c)]",
    "//b[ancestor::a]/following-sibling::c",
    "//c[not(descendant::a)]",
    "//a[.//b or .//c]",
)


@given(documents(), st.sampled_from(XPATH_QUERIES))
@settings(max_examples=60, deadline=None)
def test_linear_naive_and_full_xpath_evaluators_agree(document, query):
    linear = CoreXPathEvaluator(document).evaluate(query)
    naive = NaiveXPathEvaluator(document).evaluate(query)
    full = FullXPathEvaluator(document).evaluate(query)
    linear_ids = [node.preorder_index for node in linear]
    assert linear_ids == [node.preorder_index for node in naive]
    assert linear_ids == [node.preorder_index for node in full]
