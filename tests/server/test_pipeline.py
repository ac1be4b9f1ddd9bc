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
from repro.xmlgen import XmlElement, parse_xml


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
    assert list(server.run_log) == [(0, "p")]
    # ...so the next ticks must not double-run until the period elapses.
    assert server.tick() == []  # clock 0 -> 1: next_activation is 2
    assert server.tick() == []  # clock 1 -> 2
    assert server.tick() == ["p"]  # clock 2: the period has elapsed
    assert counter["runs"] == 2
    assert list(server.run_log) == [(0, "p"), (2, "p")]


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


def _offers(*prices, product="X"):
    return parse_xml(
        "<market>"
        + "".join(
            f"<offer><product>{product}</product><price>{price}</price></offer>"
            for price in prices
        )
        + "</market>"
    )


@pytest.mark.parametrize("product", ["X", ""], ids=["shared-key", "empty-key"])
def test_change_detector_sees_every_record_under_a_shared_key(product):
    detector = ChangeDetector("offer", key="product")
    detector.observe(_offers(1, 2, product=product))
    report = detector.observe(_offers(9, 2, product=product))
    assert report.summary() == "0 added, 2 changed, 0 removed"
    assert [offer.findtext("price") for offer in report.changed] == ["9", "2"]
    assert not detector.observe(_offers(9, 2, product=product)).has_changes
    # One record fewer under a key that stays is a change as well.
    assert detector.observe(_offers(9, product=product)).changed


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


def test_aliased_wrapper_component_sees_its_own_program_mutations():
    """A component honours post-construction mutations of its own program.

    Two components built from separate parses of one wrapper text extract
    the same; when one of them mutates ITS program (mark_auxiliary), its
    next process() must honour the mutation and the other's must not."""
    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=2, seed=4))
    text = """
    book(S, X)  <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, title, exact)]))
    title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
    """
    url = "books-a.test/bestsellers"
    component_a = WrapperComponent("a", parse_elog(text), web, url)
    component_b = WrapperComponent("b", parse_elog(text), web, url)
    assert list(component_b.process([]).iter("title"))
    component_b.program.mark_auxiliary("title")
    # B's own mutation takes effect on B...
    assert not list(component_b.process([]).iter("title"))
    # ...and does not opt A into it.
    assert list(component_a.process([]).iter("title"))

