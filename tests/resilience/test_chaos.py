"""The seeded chaos suite: storms of injected faults over real batch runs.

Every fault here comes from a seeded :class:`FaultPlan`, so a failing run
replays exactly — CI can randomise ``CHAOS_SEED`` (the environment
variable) and print the seed on failure, and a pinned default keeps the
default run deterministic.

The acceptance scenario: with ~20% injected transient fetch faults (each
fail-N-then-succeed with N < max_attempts, so all are recoverable) plus a
permanent-failure subset, a 500-document ``extract_many`` under
``on_error="collect"`` returns, for every recoverable document, output
byte-equal to the clean run — and an :class:`ErrorResult` carrying
attempt/elapsed metadata for the permanent failures *only*.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import ErrorResult, ResiliencePolicy, Session
from repro.automata import leaf_selector_automaton
from repro.datalog import parse_program
from repro.mdatalog import MonadicProgram
from repro.resilience import FaultPlan, PermanentFetchError, RetryPolicy
from repro.tree import tree
from repro.web import SimulatedWeb
from repro.xmlgen.serializer import to_compact_xml

SEED = int(os.environ.get("CHAOS_SEED", "20260808"))

#: Zero-backoff, three attempts: injected fail-1/fail-2 sequences always
#: recover, and the storm burns no wall-clock sleeping.
POLICY = ResiliencePolicy(
    retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0, seed=SEED),
    on_error="collect",
)

WRAPPER = "item(S, X) <- document(_, S), subelem(S, ?.p, X)"


def _publish(web, count):
    """``count`` one-record pages, each on its own host (so the per-host
    breaker sees independent sources, like a crawl across many sites)."""
    urls = []
    for i in range(count):
        url = f"doc-{i}.test/page"
        web.publish(url, f"<html><body><p>item {i} of seed {SEED}</p></body></html>")
        urls.append(url)
    return urls


def _storm(urls, rng, transient_share=0.2, permanent_share=0.05):
    """A seeded plan: ~``transient_share`` of the URLs flake recoverably
    (fail 1 or 2 times, always < max_attempts), a disjoint
    ``permanent_share`` are gone for good."""
    shuffled = list(urls)
    rng.shuffle(shuffled)
    n_transient = int(len(urls) * transient_share)
    n_permanent = int(len(urls) * permanent_share)
    recoverable = shuffled[:n_transient]
    permanent = shuffled[n_transient:n_transient + n_permanent]
    plan = FaultPlan(seed=SEED)
    for url in recoverable:
        plan.fail_transient(url, times=rng.choice([1, 2]))
    for url in permanent:
        plan.fail_permanent(url)
    return plan, set(recoverable), set(permanent)


def test_500_document_storm_collect_matches_the_clean_run_byte_for_byte():
    rng = random.Random(SEED)
    clean_web, faulty_web = SimulatedWeb(), SimulatedWeb()
    urls = _publish(clean_web, 500)
    _publish(faulty_web, 500)
    plan, recoverable, permanent = _storm(urls, rng)
    faulty_web.install_faults(plan)

    clean = Session().extract_many(WRAPPER, urls=urls, fetcher=clean_web)
    stormed_session = Session(resilience=POLICY)
    stormed = stormed_session.extract_many(WRAPPER, urls=urls, fetcher=faulty_web)

    assert len(stormed) == len(clean) == 500, f"seed={SEED}"
    for index, (url, clean_slot, slot) in enumerate(zip(urls, clean, stormed)):
        if url in permanent:
            # Permanent failures — and only they — come back as ErrorResults.
            assert isinstance(slot, ErrorResult), f"seed={SEED} url={url}"
            assert isinstance(slot.error, PermanentFetchError), f"seed={SEED}"
            assert slot.url == url and slot.index == index, f"seed={SEED}"
            assert slot.attempts == 1, f"seed={SEED}"  # no retry on permanent
            assert slot.elapsed_s >= 0.0, f"seed={SEED}"
        else:
            assert slot.ok, f"seed={SEED} url={url} unexpectedly failed: {slot!r}"
            assert to_compact_xml(slot.to_xml()) == to_compact_xml(
                clean_slot.to_xml()
            ), f"seed={SEED} url={url}"

    # The storm actually stormed: every recoverable URL injected >= 1
    # transient fault and the retry layer absorbed every one of them.
    assert plan.injected["transient"] >= len(recoverable), f"seed={SEED}"
    assert plan.injected["permanent"] == len(permanent), f"seed={SEED}"
    info = stormed_session.resilience_info()
    assert info.retries == plan.injected["transient"], f"seed={SEED}"
    assert info.errors_isolated == len(permanent), f"seed={SEED}"
    assert len(recoverable) == 100 and len(permanent) == 25


@pytest.mark.parametrize("max_workers", [1, 8])
@pytest.mark.parametrize("on_error", ["collect", "skip"])
def test_storm_matrix_over_on_error_and_workers(on_error, max_workers):
    rng = random.Random(SEED + 1)
    clean_web, faulty_web = SimulatedWeb(), SimulatedWeb()
    urls = _publish(clean_web, 120)
    _publish(faulty_web, 120)
    plan, _, permanent = _storm(urls, rng)
    faulty_web.install_faults(plan)

    clean = Session().extract_many(WRAPPER, urls=urls, fetcher=clean_web)
    expected_good = [
        to_compact_xml(slot.to_xml())
        for url, slot in zip(urls, clean)
        if url not in permanent
    ]

    stormed = Session(resilience=POLICY).extract_many(
        WRAPPER, urls=urls, fetcher=faulty_web,
        max_workers=max_workers, on_error=on_error,
    )
    good = [to_compact_xml(slot.to_xml()) for slot in stormed if slot.ok]
    assert good == expected_good, f"seed={SEED} workers={max_workers}"
    failures = [slot for slot in stormed if not slot.ok]
    if on_error == "skip":
        assert failures == [], f"seed={SEED}"
        assert len(stormed) == 120 - len(permanent), f"seed={SEED}"
    else:
        assert {slot.url for slot in failures} == permanent, f"seed={SEED}"


@pytest.mark.parametrize("backend", ["semi-naive", "monadic", "automata"])
@pytest.mark.parametrize("max_workers", [1, 8])
@pytest.mark.parametrize("on_error", ["collect", "skip"])
def test_query_many_storm_across_backends(backend, max_workers, on_error):
    rng = random.Random(SEED + 2)
    if backend == "semi-naive":
        program = parse_program(
            "reach(X, Y) :- edge(X, Y). reach(X, Y) :- reach(X, Z), edge(Z, Y)."
        )
        sources = [{"edge": {(1, 2), (2, i + 3)}} for i in range(40)]
        kwargs = {}
        key = "reach"
    else:
        shapes = [
            ("doc", ("i", ("b",)), ("a",)),
            ("doc", ("a",), ("i",)),
            ("doc", ("b", ("i", ("a",)))),
        ]
        sources = [tree(shapes[i % len(shapes)]) for i in range(40)]
        kwargs = {"labels": ("doc", "i", "b", "a")}
        key = "italic" if backend == "monadic" else "selected"
        if backend == "monadic":
            program = MonadicProgram.parse(
                """
                italic(X) :- label_i(X).
                italic(X) :- italic(X0), firstchild(X0, X).
                """,
                query_predicates=["italic"],
            )
        else:
            program = leaf_selector_automaton(("doc", "i", "b", "a"))

    session = Session()
    clean = session.query_many(program, sources, backend, **kwargs)
    poisoned_at = set(rng.sample(range(40), 8))
    poisoned = [
        object() if i in poisoned_at else source
        for i, source in enumerate(sources)
    ]
    stormed = session.query_many(
        program, poisoned, backend, max_workers=max_workers,
        on_error=on_error, **kwargs,
    )
    expected_good = [
        sorted(slot.tuples(key))
        for i, slot in enumerate(clean)
        if i not in poisoned_at
    ]
    good = [sorted(slot.tuples(key)) for slot in stormed if slot.ok]
    assert good == expected_good, f"seed={SEED} backend={backend}"
    if on_error == "collect":
        assert {slot.index for slot in stormed if not slot.ok} == poisoned_at
        assert all(slot.backend == backend for slot in stormed if not slot.ok)
    else:
        assert len(stormed) == 40 - len(poisoned_at), f"seed={SEED}"


def test_monitored_pipe_serves_stale_through_a_chaos_outage():
    from repro.api import ChangeDetector, Pipeline, SmsDeliverer, TransformationServer
    from repro.server.monitoring import is_stale

    web = SimulatedWeb()
    url = "doc-0.test/page"
    web.publish(url, "<html><body><p>status green</p></body></html>")
    sms = SmsDeliverer("sms", "+43 123", summarise=lambda doc: doc.full_text())
    pipeline = (
        Pipeline.builder("monitor", resilience=POLICY)
        .wrapper("status", WRAPPER, web, url)
        .deliver(sms, on_change=ChangeDetector("item", key="."))
        .build()
    )
    server = TransformationServer()
    server.register(pipeline)

    first = server.run_all()["monitor"]
    assert not is_stale(first["status"])

    # The source goes down hard mid-monitoring: the pipe keeps producing,
    # serving the last-good snapshot marked stale.
    web.install_faults(FaultPlan(seed=SEED).fail_permanent(url))
    degraded = server.run_all(on_error="collect")["monitor"]
    assert not isinstance(degraded, ErrorResult)
    assert is_stale(degraded["status"])
    assert degraded["status"].full_text() == first["status"].full_text()
    report = server.resilience_report()
    assert report["monitor/status"].stale_served == 1
    assert sms.deliveries == []  # a stale snapshot never fires the gate
