"""Per-slot error isolation on the batch paths.

``Session.query_many`` / ``Session.extract_many`` and
``TransformationServer.run_all`` accept ``on_error="raise"|"skip"|"collect"``:
one poisoned slot must not abort the other N-1, and under ``"collect"`` the
failed slot comes back as an :class:`ErrorResult` in place, so result order
still matches the input order — sequential and ``max_workers=`` paths alike,
over list and generator inputs alike.
"""

from __future__ import annotations

import pytest

from repro import ErrorResult, ResiliencePolicy, Session
from repro.automata import leaf_selector_automaton
from repro.datalog import parse_program
from repro.mdatalog import MonadicProgram
from repro.resilience import FaultPlan, FetchError, PermanentFetchError, RetryPolicy
from repro.resilience.policy import ResilienceStats
from repro.tree import tree
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import bookstore_site

FAST = ResiliencePolicy(retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0))

REACH = parse_program("reach(X, Y) :- edge(X, Y). reach(X, Y) :- reach(X, Z), edge(Z, Y).")

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
"""


#: (max_workers, input shape): every batch case runs sequentially and on a
#: thread pool, over a list and over a one-shot iterator; the list cases
#: keep their plain ids.
WORKERS_AND_SHAPES = [
    pytest.param(None, list, id="None"),
    pytest.param(8, list, id="8"),
    pytest.param(None, iter, id="None-iter"),
    pytest.param(8, iter, id="8-iter"),
]


@pytest.fixture
def documents():
    return [
        tree(("doc", ("i", ("b",)), ("a",))),
        tree(("doc", ("a",), ("i",))),
        tree(("doc", ("b", ("i", ("a",))))),
    ]


@pytest.fixture
def web():
    site = SimulatedWeb()
    site.publish_many(bookstore_site(count=3, seed=7))
    return site


def _query_sources(backend, documents):
    if backend == "semi-naive":
        return [{"edge": {(1, 2), (2, 3), (3, i + 4)}} for i in range(3)]
    return list(documents)


def _query_kwargs(backend):
    if backend == "automata":
        return {"labels": ("doc", "i", "b", "a")}
    return {}


def _program(backend):
    if backend == "semi-naive":
        return REACH
    if backend == "monadic":
        return ITALIC
    return leaf_selector_automaton(("doc", "i", "b", "a"))


def _comparable(result):
    name = "reach" if result.backend == "semi-naive" else next(
        iter(result.predicates()), "selected"
    )
    return sorted(result.tuples(name))


# ---------------------------------------------------------------------------
# query_many
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["semi-naive", "monadic", "automata"])
@pytest.mark.parametrize("max_workers, shape", WORKERS_AND_SHAPES)
def test_query_many_isolates_the_poisoned_slot(backend, max_workers, shape, documents):
    session = Session()
    good = _query_sources(backend, documents)
    clean = session.query_many(
        _program(backend), shape(good), backend, max_workers=max_workers,
        **_query_kwargs(backend),
    )
    poisoned = [good[0], object(), good[1], good[2]]

    with pytest.raises(Exception):
        session.query_many(
            _program(backend), shape(poisoned), backend, max_workers=max_workers,
            **_query_kwargs(backend),
        )

    collected = session.query_many(
        _program(backend), shape(poisoned), backend, max_workers=max_workers,
        on_error="collect", **_query_kwargs(backend),
    )
    assert len(collected) == 4
    assert isinstance(collected[1], ErrorResult)
    assert collected[1].index == 1
    assert collected[1].backend == backend
    assert not collected[1].ok and collected[0].ok
    survivors = [slot for slot in collected if slot.ok]
    assert [_comparable(s) for s in survivors] == [_comparable(c) for c in clean]

    skipped = session.query_many(
        _program(backend), shape(poisoned), backend, max_workers=max_workers,
        on_error="skip", **_query_kwargs(backend),
    )
    assert [_comparable(s) for s in skipped] == [_comparable(c) for c in clean]

    assert session.resilience_info().errors_isolated == 2


def test_query_many_rejects_unknown_on_error(documents):
    with pytest.raises(ValueError):
        Session().query_many(ITALIC, documents, on_error="explode")


def test_session_policy_sets_the_default_on_error(documents):
    session = Session(resilience=FAST.derive(on_error="collect"))
    slots = session.query_many(ITALIC, [documents[0], object()])
    assert isinstance(slots[1], ErrorResult)  # collected without a kwarg
    # An explicit on_error= still wins over the policy default.
    assert len(session.query_many(ITALIC, [documents[0], object()], on_error="skip")) == 1


# ---------------------------------------------------------------------------
# extract_many
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("max_workers, shape", WORKERS_AND_SHAPES)
def test_extract_many_url_failures_come_back_in_slot(web, max_workers, shape):
    session = Session()
    urls = [
        "books-a.test/bestsellers",
        "gone.test/nowhere",
        "books-b.test/chart",
    ]
    with pytest.raises(PermanentFetchError) as raised:
        session.extract_many(
            WRAPPER, urls=shape(urls), fetcher=web, max_workers=max_workers
        )
    # "raise" aborts on the first failed slot: a sequential batch never
    # fetches the slot after it; a threaded one drains its window first.
    assert raised.value.url == "gone.test/nowhere"
    assert len(web.fetch_log) == (2 if max_workers is None else 3)

    collected = session.extract_many(
        WRAPPER, urls=shape(urls), fetcher=web, max_workers=max_workers,
        on_error="collect",
    )
    assert [slot.ok for slot in collected] == [True, False, True]
    failure = collected[1]
    assert failure.url == "gone.test/nowhere"
    assert failure.index == 1
    assert isinstance(failure.error, FetchError)
    assert failure.backend == "elog"

    skipped = session.extract_many(
        WRAPPER, urls=shape(urls), fetcher=web, max_workers=max_workers,
        on_error="skip",
    )
    assert [s.texts("title") for s in skipped] == [
        s.texts("title") for s in collected if s.ok
    ]


@pytest.mark.parametrize("max_workers, shape", WORKERS_AND_SHAPES)
def test_extract_many_document_failures_are_isolated_too(web, max_workers, shape):
    session = Session()
    good = [web.fetch("books-a.test/bestsellers"), web.fetch("books-b.test/chart")]
    slots = session.extract_many(
        WRAPPER, documents=shape([good[0], object(), good[1]]),
        max_workers=max_workers, on_error="collect",
    )
    assert [slot.ok for slot in slots] == [True, False, True]
    assert slots[1].index == 1
    clean = session.extract_many(WRAPPER, documents=good)
    assert [s.texts("title") for s in slots if s.ok] == [
        c.texts("title") for c in clean
    ]


def test_collected_fetch_errors_carry_retry_metadata(web):
    plan = FaultPlan().fail_transient("books-a", times=99)  # never recovers
    web.install_faults(plan)
    session = Session(resilience=FAST)
    slots = session.extract_many(
        WRAPPER, urls=["books-a.test/bestsellers", "books-b.test/chart"],
        fetcher=web, on_error="collect",
    )
    failure, success = slots
    assert not failure.ok and success.ok
    assert failure.attempts == 3  # the retry layer's annotation, not a default
    assert failure.elapsed_s >= 0.0
    info = session.resilience_info()
    assert info.retries == 2 and info.errors_isolated == 1


# ---------------------------------------------------------------------------
# run_all
# ---------------------------------------------------------------------------


def _server(web):
    from repro.api import Pipeline, TransformationServer

    good = Pipeline.builder("good").wrapper(
        "books", WRAPPER, web, "books-a.test/bestsellers"
    ).build()
    bad = Pipeline.builder("bad").wrapper(
        "books", WRAPPER, web, "vanished.test/page"
    ).build()
    server = TransformationServer()
    server.register(good)
    server.register(bad)
    return server


def test_run_all_isolates_failing_pipes(web):
    server = _server(web)
    with pytest.raises(FetchError):
        server.run_all()

    results = server.run_all(on_error="collect")
    assert set(results) == {"good", "bad"}
    assert isinstance(results["bad"], ErrorResult)
    assert results["bad"].url == "pipe:bad"
    assert results["good"]["books"].find_all("book")

    assert set(server.run_all(on_error="skip")) == {"good"}
    # Failed pipes still count as activations under skip/collect (the
    # aborted raise run logged nothing for the failing pipe); the good
    # pipe is logged by all three runs.
    logged = [name for _, name in server.run_log]
    assert logged.count("bad") == 2
    assert logged.count("good") == 3

    with pytest.raises(ValueError):
        server.run_all(on_error="explode")


# ---------------------------------------------------------------------------
# ErrorResult
# ---------------------------------------------------------------------------


def test_error_result_quacks_like_an_empty_result():
    failure = ErrorResult(ValueError("boom"), url="a.test", attempts=2, elapsed_s=0.5)
    assert not failure.ok
    assert not failure  # falsy, so `if result:` guards read naturally
    assert failure.predicates() == frozenset()
    assert failure.tuples("x") == frozenset()
    assert failure.nodes("x") == () and failure.texts("x") == ()
    assert failure.count() == 0 and failure.count("x") == 0
    assert "x" not in failure
    assert "attempts=2" in repr(failure) and "a.test" in repr(failure)


def test_error_result_from_exception_honours_retry_annotations():
    error = ValueError("boom")
    error.resilience_attempts = 4
    error.resilience_elapsed_s = 1.25
    failure = ErrorResult.from_exception(error, index=3)
    assert failure.attempts == 4
    assert failure.elapsed_s == 1.25
    assert failure.index == 3
    bare = ErrorResult.from_exception(ValueError("plain"), elapsed_s=0.1)
    assert bare.attempts == 1 and bare.elapsed_s == 0.1


def test_resilience_stats_bump_is_validated_by_snapshot_fields():
    stats = ResilienceStats()
    stats.bump("stale_served", 3)
    assert stats.snapshot().stale_served == 3
