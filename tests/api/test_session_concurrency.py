"""One shared :class:`repro.api.Session` under concurrent server load.

The tentpole suite of PR 5: N request threads hammering a single session —
``query`` / ``query_many`` / ``extract`` / ``wrapper`` across all three
backends — must produce results byte-equal to the sequential run, build at
most one evaluator / parsed program per key (single-flight memos), and keep
every ``CacheInfo`` counter consistent (no lost or double-counted
increments).  The ``max_workers=`` batch paths must match their sequential
results exactly, including the fetch-overlapped ``urls=`` path.

CI runs this file under ``pytest-timeout``, so a lock bug that deadlocks
fails fast instead of stalling the job; locally every thread join carries
its own timeout.
"""

from __future__ import annotations

import threading
from typing import Callable, List

import pytest

from repro import EngineOptions, Session
from repro.automata import leaf_selector_automaton
from repro.datalog import parse_program
from repro.mdatalog import MonadicProgram
from repro.tree import tree
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import bookstore_site

THREADS = 8

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

BOOKS_URL = "books-a.test/bestsellers"


def run_threads(count: int, work: Callable[[int], None]) -> None:
    """Run ``work(i)`` on ``count`` gate-started threads; join with timeout."""
    errors: List[BaseException] = []
    barrier = threading.Barrier(count)

    def runner(index: int) -> None:
        try:
            barrier.wait(timeout=10)
            work(index)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=runner, args=(index,), daemon=True)
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "worker thread hung"
    if errors:
        raise errors[0]


@pytest.fixture
def documents():
    return [
        tree(("doc", ("i", ("b",)), ("a",))),
        tree(("doc", ("a",), ("i",))),
        tree(("doc", ("b", ("i", ("a",))))),
        tree(("doc", ("i",), ("i", ("b",)))),
    ]


@pytest.fixture
def web():
    site = SimulatedWeb()
    site.publish_many(bookstore_site(count=4, seed=7))
    return site


# ---------------------------------------------------------------------------
# Shared-session results equal the sequential run
# ---------------------------------------------------------------------------


def test_threads_hammering_query_match_sequential_on_all_backends(documents):
    databases = [{"edge": {(1, 2), (2, 3), (3, i + 4)}} for i in range(4)]
    automaton = leaf_selector_automaton(("doc", "i", "b", "a"))
    labels = ("doc", "i", "b", "a")

    def snapshot(session: Session) -> list:
        rows = []
        for database in databases:
            rows.append(sorted(session.query(REACH, database).tuples("reach")))
        for document in documents:
            rows.append(
                [n.preorder_index for n in session.query(ITALIC, document).nodes("italic")]
            )
        for document in documents:
            rows.append(
                [
                    n.preorder_index
                    for n in session.query(automaton, document, labels=labels).nodes(
                        "selected"
                    )
                ]
            )
        return rows

    expected = snapshot(Session())

    shared = Session()
    observed: List[list] = [None] * THREADS  # type: ignore[list-item]

    def work(index: int) -> None:
        for _ in range(5):
            observed[index] = snapshot(shared)

    run_threads(THREADS, work)
    assert all(rows == expected for rows in observed)
    # The whole storm compiled each program exactly once.
    assert shared.info()["evaluators"] == 3


def test_query_many_parallel_matches_sequential(documents):
    session = Session()
    sequential = session.query_many(ITALIC, documents)
    parallel = session.query_many(ITALIC, documents, max_workers=4)
    assert [
        [n.preorder_index for n in result.nodes("italic")] for result in parallel
    ] == [[n.preorder_index for n in result.nodes("italic")] for result in sequential]


def test_extract_many_parallel_matches_sequential_byte_for_byte(web, documents):
    urls = [BOOKS_URL, BOOKS_URL, "books-a.test/bestsellers/"]
    docs = [web.fetch(BOOKS_URL)]
    sequential = Session().extract_many(WRAPPER, docs, urls=urls, fetcher=web)
    parallel = Session().extract_many(
        WRAPPER, docs, urls=urls, fetcher=web, max_workers=4
    )
    assert [result.to_xml() for result in parallel] == [
        result.to_xml() for result in sequential
    ]


def test_extract_many_parallel_propagates_fetch_errors_like_sequential(web):
    # A missing start URL surfaces the fetch error itself (a FetchError,
    # which is still a KeyError) on both the sequential and parallel paths.
    from repro.resilience import FetchError

    urls = [BOOKS_URL, "http://no-such-site.test/404"]
    sequential = Session()
    with pytest.raises(FetchError):
        sequential.extract_many(WRAPPER, urls=urls, fetcher=web)
    parallel = Session()
    with pytest.raises(FetchError):
        parallel.extract_many(WRAPPER, urls=urls, fetcher=web, max_workers=4)


def test_threads_extracting_through_one_session_share_one_interpreter(web):
    session = Session()
    programs = [None] * THREADS
    counts = [None] * THREADS

    def work(index: int) -> None:
        result = session.extract(WRAPPER, url=BOOKS_URL, fetcher=web)
        counts[index] = result.count("book")
        programs[index] = session.wrapper(WRAPPER, web).program

    run_threads(THREADS, work)
    assert counts == [4] * THREADS
    # Every thread's interpreter wraps the one program parsed from WRAPPER.
    assert all(program is programs[0] for program in programs)


# ---------------------------------------------------------------------------
# Single-flight: a thundering herd builds one instance
# ---------------------------------------------------------------------------


def test_concurrent_engine_calls_build_one_evaluator_and_compile_once():
    session = Session()
    evaluators = [None] * THREADS

    def work(index: int) -> None:
        evaluators[index] = session.engine(REACH)

    run_threads(THREADS, work)
    assert len({id(evaluator) for evaluator in evaluators}) == 1
    assert session.info()["evaluators"] == 1
    # The registry saw exactly one compilation for the one program.
    registry_info = session.plan_registry_info()
    assert registry_info.misses == 1
    assert registry_info.size == 1


def test_concurrent_text_queries_parse_once():
    session = Session()
    results = [None] * THREADS

    def work(index: int) -> None:
        results[index] = sorted(
            session.query(
                "p(X) :- e(X).", {"e": {(1,), (2,)}}, backend="semi-naive"
            ).tuples("p")
        )

    run_threads(THREADS, work)
    assert results == [[(1,), (2,)]] * THREADS
    assert len(session._parsed_programs) == 1
    assert session.info()["evaluators"] == 1


# ---------------------------------------------------------------------------
# CacheInfo consistency under the storm
# ---------------------------------------------------------------------------


def test_fixpoint_cache_counters_count_every_query(documents):
    session = Session(EngineOptions(cache_size=8))
    rounds = 6
    run_threads(
        THREADS,
        lambda index: [session.query(ITALIC, doc) for _ in range(rounds) for doc in documents],
    )
    evaluator = session.engine(ITALIC)
    info = evaluator.fixpoint_cache_info()
    # Every evaluate() did exactly one lookup; nothing lost, nothing double.
    assert info.hits + info.misses == THREADS * rounds * len(documents)
    # At least the first touch of each document missed; with racing first
    # touches there may be a few more misses, but never more than one per
    # thread per document and never a miss once entries are resident.
    assert len(documents) <= info.misses <= THREADS * len(documents)
    assert info.size <= info.capacity


def test_plan_registry_counters_are_exact_under_concurrent_sessions():
    from repro.datalog.registry import PlanRegistry

    registry = PlanRegistry(capacity=8)
    sessions = [Session(registry=registry) for _ in range(THREADS)]

    def work(index: int) -> None:
        sessions[index].engine(REACH)

    run_threads(THREADS, work)
    info = registry.info()
    # One miss per session's private build + its own memo, at most; every
    # compiled() call is counted exactly once.
    assert info.hits + info.misses == THREADS
    assert info.size == 1


def test_mixed_workload_storm_stays_consistent(web, documents):
    """Threads mixing query, query_many, extract and wrapper on one session."""
    session = Session()
    databases = [{"edge": {(1, 2), (2, 3)}}, {"edge": {(5, 6), (6, 7), (7, 8)}}]
    expected_reach = [
        sorted(Session().query(REACH, database).tuples("reach"))
        for database in databases
    ]
    expected_counts = Session().extract(WRAPPER, url=BOOKS_URL, fetcher=web).count("book")

    def work(index: int) -> None:
        for round_ in range(4):
            database = databases[(index + round_) % 2]
            assert (
                sorted(session.query(REACH, database).tuples("reach"))
                == expected_reach[(index + round_) % 2]
            )
            batch = session.query_many(ITALIC, documents, max_workers=2)
            assert len(batch) == len(documents)
            result = session.extract(WRAPPER, url=BOOKS_URL, fetcher=web)
            assert result.count("book") == expected_counts

    run_threads(THREADS, work)
    assert session.info()["evaluators"] == 2  # REACH + ITALIC
    assert session.wrapper(WRAPPER, web).program is session.wrapper(WRAPPER).program


def test_extract_many_parallel_fetches_duplicate_urls_like_sequential(web):
    """A duplicated URL is fetched once per instance on both paths, so
    stateful fetchers (counters, rotating content) see identical calls."""
    urls = [BOOKS_URL, BOOKS_URL, BOOKS_URL]
    sequential_web = SimulatedWeb()
    sequential_web.publish_many(bookstore_site(count=4, seed=7))
    Session().extract_many(WRAPPER, urls=urls, fetcher=sequential_web)
    parallel_web = SimulatedWeb()
    parallel_web.publish_many(bookstore_site(count=4, seed=7))
    Session().extract_many(WRAPPER, urls=urls, fetcher=parallel_web, max_workers=3)
    assert len(parallel_web.fetch_log) == len(sequential_web.fetch_log) == 3
