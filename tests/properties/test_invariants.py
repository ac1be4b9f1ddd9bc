"""Property-based tests (hypothesis) on the core data structures and on the
cross-formalism equivalences of Figure 6."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from hypothesis import given, settings, strategies as st

from repro.datalog import EngineOptions, parse_program, query_program, tree_database
from repro.mdatalog import MonadicProgram, MonadicTreeEvaluator, is_tmnf, to_tmnf
from repro.tree import Document, Node, decode, encode
from repro.xpath import CoreXPathEvaluator, FullXPathEvaluator, NaiveXPathEvaluator
from tests.tree.serialize import to_sexpr

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
            assert node.preorder_index < child.preorder_index
        if node.next_sibling is not None:
            assert node.preorder_index < node.next_sibling.preorder_index


@given(documents())
@settings(max_examples=40, deadline=None)
def test_is_ancestor_of_agrees_with_the_ancestor_chain(document):
    """The O(1) interval test of a built document against the parent walk."""
    for node in document:
        ancestors = set(map(id, node.iter_ancestors()))
        for other in document:
            assert other.is_ancestor_of(node) == (id(other) in ancestors)


@given(documents())
@settings(max_examples=40, deadline=None)
def test_a_subtree_is_its_preorder_interval(document):
    for node in document:
        descendants = [descendant.preorder_index for descendant in node.iter_descendants()]
        assert descendants == list(range(node.preorder_index + 1, node.subtree_end))


@given(documents())
@settings(max_examples=40, deadline=None)
def test_label_column_descendants_are_a_bisected_slice(document):
    """The region encoding documented on ``Document.label_column``."""
    for label in LABELS:
        nodes, preorders = document.label_column(label)
        assert nodes == [node for node in document if node.label == label]
        assert preorders == [node.preorder_index for node in nodes]
        for parent in document:
            lo = bisect_right(preorders, parent.preorder_index)
            hi = bisect_left(preorders, parent.subtree_end)
            expected = [n for n in parent.iter_descendants() if n.label == label]
            assert nodes[lo:hi] == expected


@given(documents())
@settings(max_examples=40, deadline=None)
def test_firstchild_nextsibling_encoding_round_trips(document):
    assert to_sexpr(decode(encode(document))) == to_sexpr(document)


@given(documents())
@settings(max_examples=40, deadline=None)
def test_leaf_lastsibling_partition_invariants(document):
    """The unary tau_ur relations, read off the node objects: a leaf has no
    children, and the root is neither a first nor a last sibling."""
    database = tree_database(document)
    for node in document:
        index = (node.preorder_index,)
        assert (index in database["leaf"]) == (not node.children)
        assert (index in database["root"]) == (node.parent is None)
        if node.parent is None:
            assert index not in database["lastsibling"]
            assert index not in database["firstsibling"]
        else:
            assert (index in database["lastsibling"]) == (node.parent.children[-1] is node)
            assert (index in database["firstsibling"]) == (node.parent.children[0] is node)


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
