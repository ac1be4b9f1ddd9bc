"""Graceful degradation: stale-fixpoint serving when a source goes down.

A component with a :class:`ResiliencePolicy` keeps its last successful
output; when acquisition or evaluation fails it serves that copy marked
``stale="true"`` instead of failing the pipe.  Downstream, the change gate
must treat a stale snapshot as non-information: no delivery, no baseline
perturbation.
"""

from __future__ import annotations

import pytest

from repro import ResiliencePolicy, Session
from repro.api import ChangeDetector, SmsDeliverer
from repro.elog.parser import parse_elog
from repro.mdatalog import MonadicProgram
from repro.resilience import FaultPlan, FetchError, RetryPolicy, TransientFetchError
from repro.server.components import DatalogQueryComponent, WrapperComponent
from repro.server.monitoring import is_stale
from repro.tree import tree
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import bookstore_site

FAST = ResiliencePolicy(retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0))

PROGRAM = parse_elog(
    "book(S, X) <- document(_, S), subelem(S, ?.tr, X),"
    " contains(X, (?.td, [(class, title, exact)]))\n"
    "title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)"
)

ITALIC = MonadicProgram.parse(
    "italic(X) :- label_i(X). italic(X) :- italic(X0), firstchild(X0, X).",
    query_predicates=["italic"],
)

URL = "books-a.test/bestsellers"


@pytest.fixture
def web():
    site = SimulatedWeb()
    site.publish_many(bookstore_site(count=2, seed=3))
    return site


# ---------------------------------------------------------------------------
# WrapperComponent
# ---------------------------------------------------------------------------


def test_wrapper_serves_last_good_marked_stale_when_the_source_dies(web):
    component = WrapperComponent("books", PROGRAM, web, URL, resilience=FAST)
    good = component.process([])
    assert not is_stale(good)
    titles = [b.full_text() for b in good.find_all("book")]

    web.remove(URL)  # the source vanishes
    degraded = component.process([])
    assert is_stale(degraded)
    assert degraded.attributes["stale"] == "true"
    assert [b.full_text() for b in degraded.find_all("book")] == titles
    assert component.resilience_info().stale_served == 1

    # The cached copy is defensive: mutating a served snapshot cannot
    # corrupt the next degraded activation.
    degraded.children.clear()
    assert [b.full_text() for b in component.process([]).find_all("book")] == titles

    web.publish_many(bookstore_site(count=2, seed=3))  # the source recovers
    fresh = component.process([])
    assert not is_stale(fresh)


def test_wrapper_with_no_good_output_yet_still_raises(web):
    component = WrapperComponent(
        "books", PROGRAM, web, "vanished.test/page", resilience=FAST
    )
    with pytest.raises(FetchError):
        component.process([])


def test_wrapper_serve_stale_false_fails_the_pipe(web):
    component = WrapperComponent(
        "books", PROGRAM, web, URL, resilience=FAST.derive(serve_stale=False)
    )
    component.process([])
    web.remove(URL)
    with pytest.raises(FetchError):
        component.process([])
    assert component.resilience_info().stale_served == 0


def test_wrapper_without_a_policy_behaves_exactly_as_before(web):
    component = WrapperComponent("books", PROGRAM, web, URL)
    component.process([])
    web.remove(URL)
    with pytest.raises(KeyError):
        component.process([])
    assert component.resilience_info() is None


def test_wrapper_retries_transient_faults_through_the_policy(web):
    web.install_faults(FaultPlan().fail_transient(URL, times=2))
    component = WrapperComponent("books", PROGRAM, web, URL, resilience=FAST)
    result = component.process([])  # two injected failures, then success
    assert not is_stale(result) and result.find_all("book")
    info = component.resilience_info()
    assert (info.attempts, info.retries, info.stale_served) == (3, 2, 0)


# ---------------------------------------------------------------------------
# DatalogQueryComponent
# ---------------------------------------------------------------------------


class FlakySupplier:
    def __init__(self, document, fail_times=0):
        self.document = document
        self.fail_times = fail_times
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise TransientFetchError(f"supplier down (call {self.calls})")
        if self.document is None:
            raise ConnectionError("source offline")
        return self.document


def test_query_component_retries_its_supplier():
    supplier = FlakySupplier(tree(("doc", ("i",), ("a",))), fail_times=2)
    component = DatalogQueryComponent("italic", ITALIC, supplier, resilience=FAST)
    result = component.process([])
    assert supplier.calls == 3
    assert [r.name for r in result.children] == ["italic"]
    assert component.resilience_info().retries == 2


def test_query_component_serves_stale_after_a_good_run():
    supplier = FlakySupplier(tree(("doc", ("i",), ("a",))))
    component = DatalogQueryComponent("italic", ITALIC, supplier, resilience=FAST)
    good = component.process([])
    supplier.document = None  # now every call fails
    degraded = component.process([])
    assert is_stale(degraded)
    assert [r.attributes["node"] for r in degraded.find_all("italic")] == [
        r.attributes["node"] for r in good.find_all("italic")
    ]
    assert component.resilience_info().stale_served == 1


def test_query_component_without_policy_raises():
    supplier = FlakySupplier(None)
    component = DatalogQueryComponent("italic", ITALIC, supplier)
    with pytest.raises(ConnectionError):
        component.process([])
    assert component.resilience_info() is None


# ---------------------------------------------------------------------------
# The change gate under degradation
# ---------------------------------------------------------------------------


def _monitored_pipeline(web, session=None):
    from repro.api import Pipeline

    sms = SmsDeliverer("sms", "+43 123", summarise=lambda doc: doc.full_text())
    builder = Pipeline.builder("monitor", session=session, resilience=FAST)
    builder.wrapper("books", PROGRAM, web, URL)
    builder.deliver(
        sms,
        on_change=ChangeDetector("book", key="title"),
        message=lambda report: f"books changed: {report.summary()}",
    )
    return builder.build(), sms


def test_stale_outputs_do_not_fire_or_perturb_the_change_gate(web):
    pipeline, sms = _monitored_pipeline(web)
    gate = pipeline.component("sms_gate")

    pipeline.run()  # baseline observation, no delivery
    assert sms.deliveries == []

    web.update(URL, lambda html: html.replace("Monadic Tales", "Monadic Tales vol.2"))
    pipeline.run()  # a real change fires the deliverer
    assert len(sms.deliveries) == 1

    web.remove(URL)  # the source goes down: the wrapper serves stale
    results = pipeline.run()
    assert is_stale(results["books"])
    assert len(sms.deliveries) == 1  # stale != news: nothing fired
    assert gate.stale_skips == 1

    # The stale pass must not have perturbed the baseline: restoring the
    # *same* page yields no change report (nothing actually changed).
    web.publish_many(bookstore_site(count=2, seed=3))
    web.update(URL, lambda html: html.replace("Monadic Tales", "Monadic Tales vol.2"))
    fresh = pipeline.run()
    assert not is_stale(fresh["books"])
    assert len(sms.deliveries) == 1
    assert gate.stale_skips == 1


def test_pipeline_builder_threads_the_session_policy(web):
    session = Session(resilience=FAST)
    pipeline, _ = _monitored_pipeline(web, session=session)
    component = pipeline.component("books")
    assert component.resilience is FAST
    report = pipeline.resilience_report()
    assert set(report) == {"books"}  # gates/deliverers carry no policy
    assert report["books"].attempts == 0  # nothing ran yet


def test_resilience_report_across_a_whole_server(web):
    from repro.api import Pipeline, TransformationServer

    resilient = Pipeline.builder("res", resilience=FAST).wrapper(
        "books", PROGRAM, web, URL
    ).build()
    plain = Pipeline.builder("plain").wrapper(
        "books", PROGRAM, web, URL
    ).build()
    server = TransformationServer()
    server.register(resilient)
    server.register(plain)
    server.run_all()
    report = server.resilience_report()
    assert set(report) == {"res/books"}  # policy-less components are omitted
    assert report["res/books"].attempts == 1
    assert resilient.resilience_report() == {"books": report["res/books"]}


def test_is_stale_reads_the_marker_only():
    from repro.xmlgen.document import XmlElement

    fresh = XmlElement("root")
    assert not is_stale(fresh)
    fresh.attributes["stale"] = "true"
    assert is_stale(fresh)
