"""Frozen XML elements: the read-only hand-over of the information pipe.

``XmlElement.freeze`` makes a tree read-only in place; an information pipe
freezes every output it hands over uncopied.  A frozen element refuses
every edit, ``copy()`` gives an editable tree, and freezing changes
neither equality, hash nor serialisation.
"""

from __future__ import annotations

import pytest

from repro.api import Pipeline
from repro.elog import parse_elog
from repro.server import WrapperComponent, XmlDeliverer
from repro.web import SimulatedWeb
from repro.web.sites.bookstore import bookstore_site
from repro.xmlgen import XmlElement, to_compact_xml, to_xml


def build_catalog() -> XmlElement:
    root = XmlElement("catalog", attributes={"source": "test", "kind": "books"})
    first = root.add("book", attributes={"id": "1"})
    first.add("title", text="Datalog & Rising")
    first.add("price", text="12.50")
    second = root.add("book", attributes={"id": "2"})
    second.add("title", text="Trees <of> Vienna")
    return root


def _edits(element: XmlElement):
    """Every way of editing ``element`` in place."""
    return {
        "append": lambda: element.append(XmlElement("x")),
        "add": lambda: element.add("x"),
        "name": lambda: setattr(element, "name", "x"),
        "text": lambda: setattr(element, "text", "x"),
        "children": lambda: setattr(element, "children", []),
        "attributes": lambda: setattr(element, "attributes", {}),
        "delete": lambda: delattr(element, "text"),
        "attribute item": lambda: element.attributes.__setitem__("id", "9"),
        "attribute delete": lambda: element.attributes.pop("id"),
        "children.append": lambda: element.children.append(XmlElement("x")),
    }


@pytest.mark.parametrize("edit", sorted(_edits(XmlElement("probe"))))
def test_a_frozen_element_refuses_every_edit(edit):
    catalog = build_catalog().freeze()
    for element in catalog.iter():
        with pytest.raises((AttributeError, TypeError)):
            _edits(element)[edit]()
    assert catalog == build_catalog()


def test_copy_of_a_frozen_tree_is_editable():
    catalog = build_catalog().freeze()
    clone = catalog.copy()
    assert not any(element.frozen for element in clone.iter())
    clone.find("book").add("note", text="signed")
    clone.attributes["source"] = "copy"
    clone.find("book").find("title").text = "Changed"
    assert catalog == build_catalog()


def test_freezing_keeps_equality_hash_and_serialisation():
    frozen = build_catalog().freeze()
    editable = build_catalog()
    assert frozen == editable and editable == frozen
    assert hash(frozen) == hash(editable)
    assert to_xml(frozen) == to_xml(editable)
    assert to_compact_xml(frozen) == to_compact_xml(editable)
    assert frozen.full_text() == editable.full_text()
    assert frozen.copy() == editable
    assert [e.name for e in frozen.iter()] == [e.name for e in editable.iter()]


def test_freeze_is_idempotent():
    catalog = build_catalog()
    assert catalog.freeze() is catalog
    children, attributes = catalog.children, catalog.attributes
    assert catalog.freeze() is catalog
    assert catalog.children is children and catalog.attributes is attributes
    assert isinstance(catalog.children, tuple)
    assert catalog == build_catalog()


def test_freeze_stops_at_frozen_subtrees():
    shared = build_catalog().freeze()
    # Slip an editable element under the frozen subtree behind freeze's
    # back: a walk that re-entered the subtree would freeze it.
    hidden = XmlElement("hidden")
    object.__setattr__(shared, "children", shared.children + (hidden,))
    root = XmlElement("market")
    root.append(shared)
    root.append(XmlElement("fresh"))
    root.freeze()
    assert root.frozen and root.find("fresh").frozen
    assert not hidden.frozen


def _books_pipeline():
    web = SimulatedWeb()
    web.publish_many(bookstore_site(count=3, seed=1))
    program = parse_elog(
        """
        book(S, X)  <- document(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, title, exact)]))
        title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
        """
    )
    wrapper = WrapperComponent("wrap", program, web, "books-a.test/bestsellers", root_name="books")
    return (
        Pipeline.builder("books")
        .stage(wrapper, is_source=True)
        .integrate("all", inputs=["wrap"], root_name="all")
        .stage(XmlDeliverer("deliver"))
        .build()
    ), wrapper


def test_editing_a_pipes_shared_outputs_raises():
    pipeline, wrapper = _books_pipeline()
    pipeline.run()
    results = pipeline.last_results
    for name in ("wrap", "all"):
        with pytest.raises(AttributeError):
            results[name].append(XmlElement("vandal"))
        book = next(results[name].iter("book"))
        with pytest.raises((AttributeError, TypeError)):
            book.attributes["vandal"] = "1"
        with pytest.raises(AttributeError):
            book.find("title").text = "vandal"
    # The public process() still returns a document its caller owns, and
    # the deliverer, which may edit its input, got a copy.
    owned = wrapper.process([])
    owned.add("note")
    assert not results["deliver"].frozen
    assert pipeline.run()["wrap"].find("note") is None
