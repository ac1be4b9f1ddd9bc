"""The declarative pipeline builder: construction, validation, execution."""

from __future__ import annotations

import pytest

from repro import Pipeline, Session
from repro.api import (
    ChangeDetector,
    EmailDeliverer,
    PipelineError,
    TransformationServer,
    XmlDeliverer,
)
from repro.server import (
    FilterComponent,
    InformationPipe,
    IntegrationComponent,
    XmlSourceComponent,
)
from repro.xmlgen import XmlElement


def records(root_name, *values):
    root = XmlElement(root_name)
    for value in values:
        record = root.add("item")
        field = record.add("value")
        field.text = str(value)
    return root


def test_linear_pipeline_builds_and_runs():
    pipeline = (
        Pipeline.builder("numbers")
        .source("src", lambda: records("numbers", 1, 7, 3))
        .filter("big", "item", lambda item: int(item.findtext("value")) > 2)
        .sort("sorted", "item", "value")
        .deliver(XmlDeliverer("out"))
        .build()
    )
    results = pipeline.run()
    values = [item.findtext("value") for item in results["sorted"].find_all("item")]
    assert values == ["3", "7"]
    assert pipeline.component("out").last_delivery() is not None
    assert pipeline.name == "numbers"


def test_builder_matches_the_imperative_wiring():
    def build_imperative():
        # The raw DAG, wired through the pipe's internals.
        pipe = InformationPipe("legacy")
        pipe._add(XmlSourceComponent("a", lambda: records("a", 1, 2)))
        pipe._add(XmlSourceComponent("b", lambda: records("b", 3)))
        pipe._add(IntegrationComponent("merge", root_name="all"))
        pipe._add(FilterComponent("keep", "item", lambda item: True))
        pipe._connect("a", "merge")
        pipe._connect("b", "merge")
        pipe._connect("merge", "keep")
        return pipe.run()

    declarative = (
        Pipeline.builder("declared")
        .source("a", lambda: records("a", 1, 2))
        .source("b", lambda: records("b", 3))
        .integrate("merge", inputs=["a", "b"], root_name="all")
        .filter("keep", "item", lambda item: True)
        .build()
        .run()
    )
    imperative = build_imperative()
    from repro.xmlgen.serializer import to_compact_xml

    assert to_compact_xml(declarative["keep"]) == to_compact_xml(imperative["keep"])


def test_join_stage_pins_the_primary_side():
    pipeline = (
        Pipeline.builder("join")
        .source("left", lambda: records("left", "x", "y"))
        .source("right", lambda: records("right", "y"))
        .join(
            "joined", primary="left", other="right",
            record_name="item", other_record_name="item", key="value",
        )
        .build()
    )
    joined = pipeline.run()["joined"]
    # Both primary records pass through; only "y" gains a joined record.
    items = joined.find_all("item")
    assert len(items) == 2
    assert [len(item.find_all("item")) for item in items] == [0, 1]


def test_change_gated_delivery_via_on_change():
    state = {"values": (1,)}
    email = EmailDeliverer("alerts", "a@test")
    pipeline = (
        Pipeline.builder("watch")
        .source("src", lambda: records("snapshot", *state["values"]))
        .deliver(email, name="gate", on_change=ChangeDetector("item", key="value"))
        .build()
    )
    server = pipeline.serve(period=1)
    assert isinstance(server, TransformationServer)
    server.tick()                 # baseline: no delivery
    server.tick()                 # unchanged: no delivery
    assert len(email.deliveries) == 0
    state["values"] = (1, 2)
    server.tick()
    assert len(email.deliveries) == 1


def test_deliverers_sees_through_change_gates():
    email = EmailDeliverer("alerts", "a@test")
    pipeline = (
        Pipeline.builder("watch")
        .source("src", lambda: records("snapshot", 1))
        .deliver(email, name="gate", on_change=ChangeDetector("item", key="value"))
        .build()
    )
    assert pipeline.deliverers() == [email]


def test_serve_registers_on_an_existing_server():
    pipeline = (
        Pipeline.builder("p1").source("src", lambda: records("r", 1)).build()
    )
    server = TransformationServer()
    assert pipeline.serve(server) is server
    assert server.pipes() == ["p1"]


def test_validation_duplicate_stage_name():
    builder = Pipeline.builder().source("src", lambda: records("r"))
    with pytest.raises(PipelineError, match="duplicate"):
        builder.source("src", lambda: records("r"))


def test_validation_unknown_input_reference():
    builder = Pipeline.builder().source("src", lambda: records("r"))
    with pytest.raises(PipelineError, match="unknown component"):
        builder.filter("f", "item", lambda item: True, inputs=["nope"])


def test_validation_consumer_without_upstream():
    with pytest.raises(PipelineError, match="no upstream"):
        Pipeline.builder().filter("f", "item", lambda item: True)


def test_validation_empty_input_list():
    builder = Pipeline.builder().source("src", lambda: records("r"))
    with pytest.raises(PipelineError, match="empty input list"):
        builder.integrate("merge", inputs=[])


def test_validation_no_stages_and_no_sources():
    with pytest.raises(PipelineError, match="no stages"):
        Pipeline.builder().build()
    builder = Pipeline.builder()
    builder.stage(FilterComponent("f", "item", lambda item: True), inputs=(), is_source=True)
    built = builder.build()  # custom sources are allowed through stage()
    assert built.component("f").name == "f"


def test_validation_cycle_detected_at_build_time():
    builder = (
        Pipeline.builder()
        .source("src", lambda: records("r", 1))
        .filter("f", "item", lambda item: True)
        .filter("g", "item", lambda item: True)
        .connect("g", "f")
    )
    with pytest.raises(PipelineError, match="cycle"):
        builder.build()


def test_gate_only_kwargs_without_on_change_are_rejected():
    builder = Pipeline.builder().source("src", lambda: records("r", 1))
    with pytest.raises(PipelineError, match="on_change"):
        builder.deliver(XmlDeliverer("out"), message=lambda report: "hi")
    with pytest.raises(PipelineError, match="on_change"):
        builder.deliver(XmlDeliverer("out"), deliver_initial=True)


def test_ungated_deliver_cannot_be_renamed():
    builder = Pipeline.builder().source("src", lambda: records("r", 1))
    with pytest.raises(PipelineError, match="cannot rename"):
        builder.deliver(XmlDeliverer("out"), name="elsewhere")


def test_session_bound_builder_shares_session_state():
    session = Session()
    builder = session.pipeline("bound")
    assert isinstance(builder, type(Pipeline.builder()))
    pipeline = builder.source("src", lambda: records("r", 1)).build()
    assert pipeline.run()["src"].name == "r"
