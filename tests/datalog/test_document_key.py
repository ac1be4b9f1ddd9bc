"""A built Document is fingerprinted once; every tree-keyed cache reads that key,
and every evaluator reads the key's content, the document's one tau_ur encoding."""

from __future__ import annotations

import sys

import pytest

from repro.api import Session
from repro.datalog import EngineOptions, SemiNaiveEngine, document_key, parse_program, tree_edb
from repro.datalog.tree_edb import TreeRelations
from repro.html import parse_html
from repro.mdatalog import MonadicProgram, MonadicTreeEvaluator
from repro.tree import tree

LITERAL = ("r", ("b",), ("a", ("b",), ("c",)), ("d",))
MONADIC = "hit(X) :- label_b(X0), nextsibling(X0, X)."


@pytest.fixture
def fingerprints(monkeypatch):
    """The documents ``tree_fingerprint`` walked, one entry per call, in
    whichever ``repro`` module binds the name."""
    walked = []
    original = tree_edb.tree_fingerprint

    def counting(document):
        walked.append(document)
        return original(document)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "tree_fingerprint", None) is original:
            monkeypatch.setattr(module, "tree_fingerprint", counting)
    return walked


def _evaluators():
    program = MonadicProgram.parse(MONADIC)
    return [
        MonadicTreeEvaluator(program),
        MonadicTreeEvaluator(program, options=EngineOptions(force_generic=True)),
    ]


def test_the_key_is_built_once_and_kept_on_the_document(fingerprints):
    document = tree(LITERAL)
    key = document_key(document)
    assert document_key(document) is key
    assert key == document_key(tree(LITERAL))
    assert key != document_key(tree(("r", ("b",))))
    assert len(fingerprints) == 3


def test_repeated_queries_over_one_document_fingerprint_it_once(fingerprints):
    document = tree(LITERAL)
    engine = SemiNaiveEngine(parse_program("p(X) :- label_b(X), leaf(X)."))
    evaluators = _evaluators()
    session = Session()
    for _ in range(3):
        assert engine.query(document, "p") == {(1,), (3,)}
        for evaluator in evaluators:
            assert [n.preorder_index for n in evaluator.evaluate(document)["hit"]] == [2, 4]
            assert [n.preorder_index for n in evaluator.select(document, "hit")] == [2, 4]
            assert [n.preorder_index for n in evaluator.select(document, "leaf")] == [1, 3, 4, 5]
        assert session.query(MONADIC, document, backend="monadic").nodes("hit") == (
            document.node_at(2),
            document.node_at(4),
        )
    assert fingerprints == [document]


def test_equal_but_distinct_documents_share_one_entry(fingerprints):
    first, second = tree(LITERAL), tree(LITERAL)
    engine = SemiNaiveEngine(parse_program("p(X) :- label_b(X), leaf(X)."))
    assert engine.fixpoint(first) is engine.fixpoint(second)
    info = engine.fixpoint_cache_info()
    assert (info.hits, info.misses, info.size) == (1, 1, 1)
    for evaluator in _evaluators():
        evaluator.evaluate(first)
        hits = evaluator.evaluate(second)["hit"]
        info = evaluator.fixpoint_cache_info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)
        assert all(node is second.node_at(node.preorder_index) for node in hits)
    assert fingerprints == [first, second]


def test_parsing_computes_no_key(fingerprints):
    document = parse_html("<html><body><p>one</p><p>two</p></body></html>")
    assert document._cache_key is None
    assert fingerprints == []


# ---------------------------------------------------------------------------
# One tau_ur encoding per document: the key's content is what evaluators read
# ---------------------------------------------------------------------------

#: Same preorder labels as LITERAL, but ``c`` hangs off the root, not ``a``.
REPARENTED = ("r", ("b",), ("a", ("b",)), ("c",), ("d",))
#: Same shape as LITERAL, one label changed.
RELABELLED = ("r", ("b",), ("a", ("b",), ("e",)), ("d",))


def test_a_cached_fixpoint_holds_the_key_content_itself():
    document = tree(LITERAL)
    engine = SemiNaiveEngine(parse_program("p(X) :- label_b(X), leaf(X)."))
    result = engine.fixpoint(document)
    assert result._tree is document_key(document).content
    assert engine.fixpoint(tree(LITERAL))._tree is document_key(document).content


def test_the_step_functions_are_built_once_per_document(monkeypatch):
    built = []
    original = TreeRelations.step_functions

    def counting(self):
        if self._functions is None:
            built.append(self)
        return original(self)

    monkeypatch.setattr(TreeRelations, "step_functions", counting)
    document, other = tree(LITERAL), tree(REPARENTED)
    single = EngineOptions(cache_size=1)
    evaluators = [
        MonadicTreeEvaluator(MonadicProgram.parse(MONADIC), options=single),
        MonadicTreeEvaluator(
            MonadicProgram.parse("up(X) :- label_b(X0), lastchild(X, X0)."), options=single
        ),
    ]
    assert all(evaluator.uses_ground_pipeline for evaluator in evaluators)
    rounds = 3
    for _ in range(rounds):
        for evaluator in evaluators:
            for source in (document, other):
                evaluator.evaluate(source)
    for evaluator in evaluators:
        assert evaluator.fixpoint_cache_info().misses == 2 * rounds
    assert built == [document_key(document).content, document_key(other).content]


def test_equal_documents_hit_and_a_changed_label_or_parent_misses():
    program = parse_program("p(X) :- label_c(X), lastsibling(X).")
    engine = SemiNaiveEngine(program)
    original = tree(LITERAL)
    assert engine.query(original, "p") == {(4,)}
    assert engine.query(tree(LITERAL), "p") == {(4,)}
    assert engine.fixpoint_cache_info().misses == 1
    for changed in (REPARENTED, RELABELLED):
        document = tree(changed)
        assert document_key(document) != document_key(original), changed
        assert document_key(document).content != document_key(original).content, changed
        assert engine.query(document, "p") == set(), changed
    assert engine.fixpoint_cache_info().misses == 3
