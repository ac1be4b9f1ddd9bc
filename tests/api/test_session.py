"""Session: ownership, backend routing, memoisation, batch entry points."""

from __future__ import annotations

import pytest

from repro import EngineOptions, Session, available_backends
from repro.api import ExtractionResult
from repro.api.backends import BackendError
from repro.automata import leaf_selector_automaton
from repro.datalog import parse_program, shared_registry, tree_database
from repro.mdatalog import MonadicProgram
from repro.tree import tree
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import bookstore_site

REACH = parse_program(
    """
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """
)

ITALIC = MonadicProgram.parse(
    """
    italic(X) :- label_i(X).
    italic(X) :- italic(X0), firstchild(X0, X).
    italic(X) :- italic(X0), nextsibling(X0, X).
    """,
    query_predicates=["italic"],
)

WRAPPER = """
book(S, X)  <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, title, exact)]))
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
"""


@pytest.fixture
def doc():
    return tree(("doc", ("i", ("b",)), ("a",)))


def test_all_three_backends_are_registered():
    assert set(available_backends()) >= {"semi-naive", "monadic", "automata"}


def test_backend_inference_by_program_type(doc):
    session = Session()
    facts = session.query(REACH, {"edge": {(1, 2), (2, 3)}})
    assert facts.backend == "semi-naive"
    assert facts.tuples("reach") == {(1, 2), (2, 3), (1, 3)}

    selection = session.query(ITALIC, doc)
    assert selection.backend == "monadic"
    assert [node.label for node in selection.nodes("italic")] == ["i", "b", "a"]

    automaton = leaf_selector_automaton(("doc", "i", "b", "a"))
    selected = session.query(automaton, doc)
    assert selected.backend == "automata"
    assert {node.label for node in selected.nodes("selected")} == {"b", "a"}


def test_semi_naive_backend_accepts_documents(doc):
    # A document source is evaluated over its tau_ur relations and the
    # result resolves unary facts back to nodes.
    session = Session()
    result = session.query(ITALIC.to_datalog_program(), doc)
    assert result.backend == "semi-naive"
    assert [node.label for node in result.nodes("italic")] == ["i", "b", "a"]


def test_document_results_report_the_relations_the_program_never_mentions(doc):
    # The engine builds only the tau_ur relations a program mentions; every
    # other one is still part of the result, built when it is asked for,
    # exactly as the plain tree_database encoding reports it.
    result = Session().query(parse_program("hit(X) :- label_i(X)."), doc, "semi-naive")
    database = tree_database(doc)
    assert result.predicates() == {
        name for name, facts in database.items() if facts
    } | {"hit"}
    assert result.evaluation.predicates() == set(database) | {"hit"}
    assert result.tuples("hit") == {(1,)}
    assert result.tuples("label_b") == database["label_b"] == {(2,)}
    assert result.tuples("label_x") == frozenset()
    assert result.tuples("nextsibling") == database["nextsibling"] == {(1, 3)}
    assert result.tuples("child") == database["child"]
    assert [node.label for node in result.nodes("leaf")] == ["b", "a"]
    assert result.evaluation.facts() == database | {"hit": {(1,)}}


def test_program_text_requires_an_explicit_backend(doc):
    session = Session()
    with pytest.raises(BackendError, match="backend="):
        session.query("p(X) :- e(X).", {"e": {(1,)}})
    result = session.query("p(X) :- e(X).", {"e": {(1,)}}, backend="semi-naive")
    assert result.tuples("p") == {(1,)}
    monadic = session.query("hit(X) :- label_i(X).", doc, backend="monadic")
    assert [node.label for node in monadic.nodes("hit")] == ["i"]


def test_unknown_backend_and_wrong_source_types_raise(doc):
    session = Session()
    with pytest.raises(BackendError, match="unknown backend"):
        session.query(REACH, {}, backend="nope")
    with pytest.raises(BackendError, match="documents"):
        session.query(ITALIC, {"edge": set()})
    with pytest.raises(BackendError, match="databases or documents"):
        session.query(REACH, 42)


def test_evaluators_are_memoised_per_program_content(doc):
    session = Session()
    first = session.engine(REACH)
    # A content-equal but distinct program object reuses the same engine.
    clone = parse_program(
        """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
        """
    )
    assert session.engine(clone) is first
    assert session.info()["evaluators"] == 1


def test_session_registry_is_isolated_from_the_process_global():
    global_before = shared_registry().info()
    session = Session()
    session.engine(REACH, backend="semi-naive")
    global_after = shared_registry().info()
    assert (global_after.hits, global_after.misses) == (
        global_before.hits,
        global_before.misses,
    )
    assert session.plan_registry_info().misses >= 1


def test_two_sessions_can_share_one_registry():
    first = Session()
    second = Session(registry=first.registry)
    first.engine(REACH)
    second.engine(REACH)
    # The second session's construction is a pure registry hit.
    assert first.registry.info().hits >= 1


def test_query_many_normalises_text_programs_once(doc, monkeypatch):
    session = Session()
    calls = []
    original = MonadicProgram.parse

    def counting_parse(text, query_predicates=None):
        calls.append(text)
        return original(text, query_predicates=query_predicates)

    monkeypatch.setattr(MonadicProgram, "parse", staticmethod(counting_parse))
    session.query_many("hit(X) :- label_i(X).", [doc, doc, doc], backend="monadic")
    assert len(calls) == 1  # one parse for the whole stream, not per source


def test_query_many_reuses_one_engine_and_its_fixpoint_cache(doc):
    session = Session()
    other = tree(("doc", ("a",), ("i",)))
    results = session.query_many(ITALIC, [doc, other, doc, other, doc])
    assert len(results) == 5 and session.info()["evaluators"] == 1
    # Repeated documents hit the evaluator's per-document LRU.
    evaluator = session.engine(ITALIC)
    info = evaluator.fixpoint_cache_info()
    assert info.hits >= 3
    assert [n.label for n in results[0].nodes("italic")] == ["i", "b", "a"]
    assert [n.label for n in results[1].nodes("italic")] == ["i"]


def test_automata_engine_without_labels_refuses_instead_of_selecting_nothing():
    # An empty alphabet would compile a program that selects nothing on
    # every document — silently wrong, so the backend refuses up front.
    session = Session()
    automaton = leaf_selector_automaton(("doc", "i"))
    with pytest.raises(BackendError, match="label alphabet"):
        session.engine(automaton)
    evaluator = session.engine(automaton, labels=("doc", "i"))
    assert evaluator is session.engine(automaton, labels=("doc", "i"))


def test_query_many_automata_compiles_one_program_over_the_label_union():
    session = Session()
    automaton = leaf_selector_automaton(("doc", "i", "b", "a"))
    docs = [tree(("doc", ("i",))), tree(("doc", ("a", ("b",))))]
    results = session.query_many(automaton, docs)
    assert session.info()["evaluators"] == 1
    assert {n.label for n in results[0].nodes("selected")} == {"i"}
    assert {n.label for n in results[1].nodes("selected")} == {"b"}


def test_options_flow_into_session_built_engines():
    session = Session(EngineOptions(cache_size=3))
    engine = session.engine(REACH)
    assert engine.options is session.options
    assert engine.fixpoint_cache_info().capacity == 3


def test_extract_and_extract_many_share_one_interpreter():
    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=4, seed=7))
    session = Session()
    result = session.extract(WRAPPER, url="books-a.test/bestsellers", fetcher=web)
    assert isinstance(result, ExtractionResult)
    assert result.count("book") == 4
    assert len(result.texts("title")) == 4

    batch = session.extract_many(
        WRAPPER,
        urls=["books-a.test/bestsellers", "books-a.test/bestsellers"],
        fetcher=web,
    )
    assert [r.count("book") for r in batch] == [4, 4]
    # The wrapper text is parsed once: every call wraps one program object.
    assert session.wrapper(WRAPPER, web).program is session.wrapper(WRAPPER, web).program


def test_select_shorthand(doc):
    session = Session()
    assert [n.label for n in session.select(ITALIC, doc, "italic")] == ["i", "b", "a"]
    assert session.select(ITALIC, doc, "never_defined") == ()


def test_session_info_snapshot(doc):
    session = Session()
    session.query(ITALIC, doc)
    info = session.info()
    assert info["evaluators"] == 1
    assert "monadic" in info["backends"]
    assert isinstance(info["options"], EngineOptions)
