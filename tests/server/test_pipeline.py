"""Tests for the Transformation Server: components, pipes, change detection."""

from __future__ import annotations

import pytest

from repro.api import Pipeline
from repro.datalog import EngineOptions
from repro.elog import parse_elog
from repro.mdatalog import MonadicProgram
from repro.server import (
    ChangeDetector,
    ChangeGatedDeliverer,
    DatalogQueryComponent,
    FilterComponent,
    InformationPipe,
    IntegrationComponent,
    JoinComponent,
    PipelineError,
    RenameComponent,
    SmsDeliverer,
    SortComponent,
    TransformationServer,
    TransformerComponent,
    WrapperComponent,
    XmlDeliverer,
    XmlSourceComponent,
)
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import bookstore_site
from repro.xmlgen import XmlElement, parse_xml, to_xml


def make_catalog(*pairs):
    root = XmlElement("catalog")
    for title, price in pairs:
        book = root.add("book")
        book.add("title", text=title)
        book.add("price", text=str(price))
    return root


def test_pipe_topological_execution_and_results():
    pipe = (
        Pipeline.builder("books")
        .stage(
            XmlSourceComponent("source", lambda: make_catalog(("A", 10), ("B", 30), ("C", 20))),
            is_source=True,
        )
        .stage(FilterComponent("cheap", "book", lambda b: float(b.findtext("price")) <= 20,
                               root_name="cheap"))
        .stage(SortComponent("sorted", "book", "price", root_name="sorted"))
        .stage(XmlDeliverer("out"))
        .build()
    )
    results = pipe.run()
    titles = [b.findtext("title") for b in results["sorted"].find_all("book")]
    assert titles == ["A", "C"]
    assert pipe.component("out").last_delivery() is not None
    assert "<title>A</title>" in pipe.component("out").last_delivery().body


def test_pipe_rejects_cycles_and_duplicates():
    # The raw DAG, wired through the internals: the builder would already
    # reject the cycle at build time.
    pipe = InformationPipe("p")
    pipe._add(XmlSourceComponent("a", lambda: XmlElement("x")))
    pipe._add(TransformerComponent("b", lambda d: d))
    pipe._connect("a", "b")
    pipe._connect("b", "a")
    with pytest.raises(PipelineError):
        pipe.run()
    with pytest.raises(PipelineError):
        pipe._add(XmlSourceComponent("a", lambda: XmlElement("x")))
    with pytest.raises(PipelineError):
        pipe._connect("a", "missing")


def test_integration_and_join_components():
    left = XmlSourceComponent("left", lambda: make_catalog(("A", 10), ("B", 20)))
    right_root = XmlElement("reviews")
    for title, stars in (("a", 5), ("b", 3)):
        review = right_root.add("review")
        review.add("title", text=title)
        review.add("stars", text=str(stars))
    right = XmlSourceComponent("right", lambda: right_root)

    pipe = (
        Pipeline.builder("joined")
        .stage(left, is_source=True)
        .stage(right, is_source=True)
        .stage(IntegrationComponent("merge"), inputs=["left", "right"])
        .stage(JoinComponent("join", "book", "review", key="title"), inputs=["left", "right"])
        .build()
    )
    results = pipe.run()
    assert len(results["merge"].children) == 2
    joined_books = results["join"].find_all("book")
    assert len(joined_books) == 2
    assert joined_books[0].find("review") is not None
    assert joined_books[0].find("review").findtext("stars") == "5"


def test_rename_component_maps_to_nitf():
    source = XmlSourceComponent("s", lambda: make_catalog(("A", 1)))
    rename = RenameComponent("nitf", {"catalog": "nitf", "book": "block", "title": "hl1"})
    pipe = Pipeline.builder("nitf-pipe").stage(source, is_source=True).stage(rename).build()
    result = pipe.run()["nitf"]
    assert result.name == "nitf"
    assert result.find("block") is not None
    assert result.find("block").find("hl1") is not None


def test_wrapper_component_runs_elog_program():
    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=4, seed=1))
    program = parse_elog(
        """
        book(S, X)  <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, title, exact)]))
        title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
        price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
        """
    )
    pipe = (
        Pipeline.builder("shop-a")
        .stage(
            WrapperComponent("wrap", program, web, "books-a.test/bestsellers", root_name="books"),
            is_source=True,
        )
        .stage(XmlDeliverer("deliver"))
        .build()
    )
    results = pipe.run()
    books = results["wrap"].find_all("book")
    assert len(books) == 4
    assert all(book.find("title") is not None and book.find("price") is not None for book in books)
    assert results["wrap"].attributes["source"] == "books-a.test/bestsellers"


def test_wrapper_component_reuses_one_extractor():
    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=2, seed=1))
    program = parse_elog(
        "book(S, X) <- document(_, S), subelem(S, ?.tr, X),"
        " contains(X, (?.td, [(class, title, exact)]))"
    )
    wrapper = WrapperComponent("wrap", program, web, "books-a.test/bestsellers")
    first = wrapper._extractor
    wrapper.process([])
    wrapper.process([])
    assert wrapper._extractor is first  # periodic activations reuse the interpreter


def test_datalog_query_component_serves_hot_documents_from_cache():
    from repro.tree.builder import tree

    documents = [
        tree(("doc", ("a", "b"), ("b",))),
        tree(("doc", ("b", "a"), ("a", ("b",)))),
    ]
    current = {"index": 0}

    def supplier():
        return documents[current["index"]]

    program = MonadicProgram.parse(
        "hit(X) :- label_b(X).", query_predicates=["hit"]
    )
    component = DatalogQueryComponent(
        "wrap",
        program,
        supplier,
        options=EngineOptions(cache_size=4, force_generic=True),
    )
    pipe = Pipeline.builder("datalog").stage(component, is_source=True).build()

    expected = []
    for document in documents:
        expected.append(
            sorted(
                str(node.preorder_index)
                for node in document
                if node.label == "b"
            )
        )
    for round_index in range(3):
        for doc_index in range(2):
            current["index"] = doc_index
            result = pipe.run()["wrap"]
            hits = sorted(r.attributes["node"] for r in result.find_all("hit"))
            assert hits == expected[doc_index]
            assert all(r.attributes["label"] == "b" for r in result.find_all("hit"))
    info = component.cache_info()
    # 6 activations over a 2-document working set: 2 misses, 4 hits.
    assert info.misses == 2 and info.hits == 4
    assert info.hit_rate == pytest.approx(2 / 3)


def test_datalog_query_component_ground_pipeline_caches_by_content():
    from repro.tree.builder import tree

    program = MonadicProgram.parse(
        "hit(X) :- label_b(X).", query_predicates=["hit"]
    )
    component = DatalogQueryComponent(
        "wrap",
        program,
        lambda: tree(("doc", ("b",), ("a",))),
        options=EngineOptions(cache_size=4),
    )
    # The supplier builds an equal-but-distinct document per call; the
    # ground pipeline's tree-fingerprint LRU must still hit.
    component.process([])
    component.process([])
    info = component.cache_info()
    assert info.misses == 1 and info.hits == 1


def test_join_component_skips_keyless_records():
    # Records whose key element is missing (or empty) must not be joined on
    # the normalised empty string — that cross-joined every keyless record.
    left_root = XmlElement("catalog")
    keyed = left_root.add("book")
    keyed.add("title", text="A")
    left_root.add("book")  # no <title> at all
    blank = left_root.add("book")
    blank.add("title", text="   ")  # whitespace-only normalises to ""

    right_root = XmlElement("reviews")
    review = right_root.add("review")
    review.add("title", text="a")
    review.add("stars", text="5")
    keyless_review = right_root.add("review")
    keyless_review.add("stars", text="1")

    pipe = (
        Pipeline.builder("joined")
        .source("left", lambda: left_root)
        .source("right", lambda: right_root)
        .stage(JoinComponent("join", "book", "review", key="title"), inputs=["left", "right"])
        .build()
    )
    books = pipe.run()["join"].find_all("book")
    assert len(books) == 3  # keyless primaries still pass through, unjoined
    assert books[0].find("review") is not None
    assert books[1].find("review") is None
    assert books[2].find("review") is None


def test_datalog_query_component_emits_records_in_document_order():
    from repro.tree.builder import tree

    document = tree(("doc", ("b",), ("a", ("b",)), ("b",)))
    program = MonadicProgram.parse("hit(X) :- label_b(X).", query_predicates=["hit"])
    component = DatalogQueryComponent("wrap", program, lambda: document)
    for _ in range(3):  # identical (and sorted) across repeated activations
        result = component.process([])
        indexes = [int(r.attributes["node"]) for r in result.find_all("hit")]
        assert indexes == sorted(indexes)
        assert len(indexes) == 3


def test_transformation_server_scheduling():
    counter = {"runs": 0}

    def supply():
        counter["runs"] += 1
        return XmlElement("tickdoc")

    fast = Pipeline.builder("fast").source("s", supply).build().pipe
    slow = Pipeline.builder("slow").source("s", supply).build().pipe

    server = TransformationServer()
    server.register(fast, period=1)
    server.register(slow, period=3)
    server.tick(steps=6)
    fast_runs = sum(1 for _, name in server.run_log if name == "fast")
    slow_runs = sum(1 for _, name in server.run_log if name == "slow")
    assert fast_runs == 6
    assert slow_runs == 2
    assert server.pipes() == ["fast", "slow"]
    with pytest.raises(PipelineError):
        server.register(fast)


def test_run_all_goes_through_scheduler_bookkeeping():
    counter = {"runs": 0}

    def supply():
        counter["runs"] += 1
        return XmlElement("doc")

    pipe = Pipeline.builder("p").source("s", supply).build().pipe
    server = TransformationServer()
    server.register(pipe, period=2)

    results = server.run_all()
    assert set(results) == {"p"} and counter["runs"] == 1
    # The run was logged and counts as the activation at the current clock...
    assert server.run_log == [(0, "p")]
    # ...so the next ticks must not double-run until the period elapses.
    assert server.tick() == []  # clock 0 -> 1: next_activation is 2
    assert server.tick() == []  # clock 1 -> 2
    assert server.tick() == ["p"]  # clock 2: the period has elapsed
    assert counter["runs"] == 2
    assert server.run_log == [(0, "p"), (2, "p")]


def test_html_portal_deliverer_escapes_scraped_text():
    from repro.server import HtmlPortalDeliverer

    root = XmlElement("board")
    record = root.add("song")
    record.add("title", text="Bold & <Beautiful>")
    record.add("artist", text='"AC/DC" <script>alert(1)</script>')
    deliverer = HtmlPortalDeliverer("portal", "song", ["title", "artist"])
    delivery = deliverer.deliver(root)
    assert "<script>" not in delivery.body
    assert "Bold &amp; &lt;Beautiful&gt;" in delivery.body
    assert "&lt;script&gt;alert(1)&lt;/script&gt;" in delivery.body
    # The table markup itself survives.
    assert "<td>" in delivery.body and "<th>title</th>" in delivery.body


def test_wrapper_components_share_one_interpreter_per_program():
    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=2, seed=1))
    program = parse_elog(
        "book(S, X) <- document(_, S), subelem(S, ?.tr, X),"
        " contains(X, (?.td, [(class, title, exact)]))"
    )
    shared_a = WrapperComponent("a", program, web, "books-a.test/bestsellers")
    shared_b = WrapperComponent("b", program, web, "books-a.test/bestsellers")
    assert shared_a._extractor is shared_b._extractor
    private = WrapperComponent(
        "c",
        program,
        web,
        "books-a.test/bestsellers",
        options=EngineOptions(share_plans=False),
    )
    assert private._extractor is not shared_a._extractor
    # Another program gets its own interpreter.
    other = WrapperComponent(
        "d", parse_elog("book(S, X) <- document(_, S), subelem(S, ?.tr, X)"),
        web, "books-a.test/bestsellers",
    )
    assert other._extractor is not shared_a._extractor
    # Sharing does not change what gets extracted.
    assert shared_a.process([]).children == private.process([]).children


def test_change_detector_reports_added_changed_removed():
    detector = ChangeDetector("flight", key="number")
    first = parse_xml(
        "<board><flight><number>OS 1</number><status>scheduled</status></flight>"
        "<flight><number>OS 2</number><status>scheduled</status></flight></board>"
    )
    second = parse_xml(
        "<board><flight><number>OS 1</number><status>delayed</status></flight>"
        "<flight><number>OS 3</number><status>scheduled</status></flight></board>"
    )
    baseline = detector.observe(first)
    assert len(baseline.added) == 2
    report = detector.observe(second)
    assert [f.findtext("number") for f in report.changed] == ["OS 1"]
    assert [f.findtext("number") for f in report.added] == ["OS 3"]
    assert report.removed == ["OS 2"]
    assert "1 added" in report.summary()


def test_change_gated_deliverer_only_fires_on_change():
    sms = SmsDeliverer("sms", "+43 123", summarise=lambda doc: doc.full_text())
    gated = ChangeGatedDeliverer(
        "gate", sms, ChangeDetector("flight", key="number"),
        message=lambda report: f"flight update: {report.summary()}",
    )
    snapshot = parse_xml(
        "<board><flight><number>OS 1</number><status>scheduled</status></flight></board>"
    )
    gated.process([snapshot])           # baseline, no delivery
    gated.process([snapshot])           # unchanged, no delivery
    assert sms.deliveries == []
    changed = parse_xml(
        "<board><flight><number>OS 1</number><status>delayed</status></flight></board>"
    )
    gated.process([changed])
    assert len(sms.deliveries) == 1
    assert sms.deliveries[0].channel == "sms"
    assert "changed" in sms.deliveries[0].body


# ---------------------------------------------------------------------------
# Prefetch: the async-capable fetcher protocol through the server layer
# ---------------------------------------------------------------------------


class RecordingExecutor:
    """A synchronous stand-in for a thread pool that records submissions."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args, **kwargs):
        from concurrent.futures import Future

        self.submitted.append(args[0] if args else kwargs.get("url"))
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as error:  # noqa: BLE001 - mirrored into the future
            future.set_exception(error)
        return future


def _wrapper_program():
    return parse_elog(
        "book(S, X) <- document(_, S), subelem(S, ?.tr, X),"
        " contains(X, (?.td, [(class, title, exact)]))"
    )


def test_pipe_run_with_executor_prefetches_and_matches_plain_run():
    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=3, seed=2))
    url = "books-a.test/bestsellers"

    def build_pipe():
        pipe = InformationPipe("shop")
        pipe._add(WrapperComponent("wrap", _wrapper_program(), web, url))
        pipe._add(XmlDeliverer("deliver"))
        pipe._connect("wrap", "deliver")
        return pipe

    plain = build_pipe().run()
    executor = RecordingExecutor()
    prefetched = build_pipe().run(executor=executor)
    assert executor.submitted == [url]
    assert to_xml(prefetched["wrap"]) == to_xml(plain["wrap"])


def test_run_all_prefetches_every_pipe_before_the_first_runs():
    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=2, seed=3))
    # Two pipes wrapping the same table page (the list/div sites need a
    # different wrapper); what matters is that BOTH fetches start up front.
    urls = ["books-a.test/bestsellers", "books-a.test/bestsellers"]
    server = TransformationServer()
    ran_before_second_fetch = []

    class OrderProbeExecutor(RecordingExecutor):
        def submit(self, fn, *args, **kwargs):
            ran_before_second_fetch.append(len(server.run_log))
            return super().submit(fn, *args, **kwargs)

    for index, url in enumerate(urls):
        pipe = InformationPipe(f"pipe-{index}")
        pipe._add(WrapperComponent("wrap", _wrapper_program(), web, url))
        server.register(pipe)

    executor = OrderProbeExecutor()
    results = server.run_all(executor=executor)
    # Both fetches were submitted before ANY pipe ran: cross-pipe overlap.
    assert executor.submitted == urls
    assert ran_before_second_fetch == [0, 0]
    assert set(results) == {"pipe-0", "pipe-1"}
    # The prefetched pages fed the normal wrapper output.
    for index in range(2):
        assert results[f"pipe-{index}"]["wrap"].find_all("book")


def test_aliased_wrapper_component_sees_its_own_program_mutations():
    """Content-keyed sharing must not swallow post-construction mutations.

    Two components built from separate parses of one wrapper text alias one
    interpreter; when one of them mutates ITS program (mark_auxiliary), its
    next process() must honour the mutation (the identity-keyed pre-PR-5
    cache did, via a private interpreter per program object)."""
    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=2, seed=4))
    text = """
    book(S, X)  <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, title, exact)]))
    title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
    """
    url = "books-a.test/bestsellers"
    component_a = WrapperComponent("a", parse_elog(text), web, url)
    component_b = WrapperComponent("b", parse_elog(text), web, url)
    assert component_b._extractor is component_a._extractor  # content-aliased

    assert list(component_b.process([]).iter("title"))
    component_b.program.mark_auxiliary("title")
    # B's own mutation takes effect on B...
    assert not list(component_b.process([]).iter("title"))
    # ...and does not opt A into it.
    assert list(component_a.process([]).iter("title"))


def test_caller_supplied_extractor_is_never_swapped_for_the_shared_one():
    """The 'pre-built interpreter wins' contract survives content keying:
    a component given extractor= keeps it even when that interpreter's
    program content differs from the component's own program."""
    from repro.elog import Extractor

    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=2, seed=5))
    tuned = Extractor(
        parse_elog(
            "book(S, X) <- document(_, S), subelem(S, ?.tr, X),"
            " contains(X, (?.td, [(class, price, exact)]))"
        ),
        fetcher=web,
        max_rounds=3,
    )
    component = WrapperComponent(
        "wrap",
        _wrapper_program(),  # content differs from the tuned extractor's
        web,
        "books-a.test/bestsellers",
        extractor=tuned,
    )
    component.process([])
    assert component._extractor is tuned


def test_failed_run_discards_unconsumed_prefetches():
    """A pipe failure must not strand later pipes' resolved futures — the
    next activation would otherwise extract a stale snapshot and break
    change detection."""
    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=2, seed=6))
    url = "books-a.test/bestsellers"

    class FailingSource(XmlSourceComponent):
        def process(self, inputs):
            raise RuntimeError("source exploded")

    server = TransformationServer()
    failing = InformationPipe("failing")
    failing._add(FailingSource("boom", lambda: XmlElement("x")))
    server.register(failing)
    healthy = InformationPipe("healthy")
    wrapper = WrapperComponent("wrap", _wrapper_program(), web, url)
    healthy._add(wrapper)
    server.register(healthy)

    executor = RecordingExecutor()
    with pytest.raises(RuntimeError):
        server.run_all(executor=executor)
    # The prefetch for the never-run pipe was started, then discarded.
    assert executor.submitted == [url]
    assert wrapper._pending_fetch is None
    # The page changes; the next activation must see the NEW content, not
    # the prefetched snapshot.
    web.update(url, lambda html: html.replace("title", "headline"))
    result = healthy.run()["wrap"]
    assert not result.find_all("book")  # class=title rows are gone


def test_prefetch_uses_the_active_extractors_fetcher():
    """Prefetched and plain runs must acquire from the same source: a
    caller-supplied extractor='s own fetcher wins over the constructor's."""
    from repro.elog import Extractor

    web_a = SimulatedWeb()
    web_a.publish_many(bookstore_site(count=1, seed=7))
    web_b = SimulatedWeb()
    web_b.publish_many(bookstore_site(count=3, seed=8))
    url = "books-a.test/bestsellers"
    program = _wrapper_program()
    component = WrapperComponent(
        "wrap", program, web_a, url, extractor=Extractor(program, fetcher=web_b)
    )
    plain_books = len(component.process([]).find_all("book"))
    assert plain_books == 3  # web_b, not web_a

    component.prefetch(RecordingExecutor())
    assert web_b.fetch_log[-1] == url  # the prefetch went through web_b
    fetched_books = len(component.process([]).find_all("book"))
    assert fetched_books == plain_books
