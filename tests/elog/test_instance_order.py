"""Stored instance anchors order the instance base as member lists did.

A :class:`~repro.elog.instance_base.PatternInstance` computes its
document-order anchor once, at construction, and every sort of the
instance base reads it.  ``tests/elog/reference.py`` keeps the anchor and
the duplicate key as they were derived before, from fresh member-node
lists.  Over the extraction suites' wrappers (Figure 5 with its ``subsq``
runs and ``subtext`` strings, the crawl with its ``subatt`` strings, the
two monitoring wrappers of the end-to-end benchmark) and a hand-built base
with an empty run and string instances whose parent has no member nodes,
four things must agree with the reference: every stored anchor (and
duplicate key), every ``instances_of`` order, the ``to_xml`` output and
``ExtractionResult.tuples``.
"""

from __future__ import annotations

import pytest

from repro.api.results import ExtractionResult
from repro.elog import Extractor, figure5_program, parse_elog
from repro.elog.instance_base import PatternInstance, PatternInstanceBase
from repro.html import parse_html
from repro.web import SimulatedWeb
from repro.web.sites.ebay import ebay_page
from repro.web.sites.flights import departures_page, generate_flights
from repro.web.sites.markets import competitor_page, competitor_prices
from repro.xmlgen import to_xml

from . import reference
from .test_reference_equivalence import (
    BOARD_WRAPPER,
    CRAWL,
    FIRSTSUBTREE,
    FORWARD_REFERENCE,
    NEGATED_REFERENCE,
    PAGE,
    PRICE_WRAPPER,
)


def _all_instances(base: PatternInstanceBase):
    for root in base.roots:
        yield root
        yield from root.iter_descendants()


def assert_orders_as_reference(base: PatternInstanceBase, auxiliary=()) -> None:
    instances = list(_all_instances(base))
    assert len(instances) == base.count()
    for instance in instances:
        assert instance.anchor() == reference.anchor(instance)
        assert instance.identity() == reference.identity(instance)
    for pattern in base.patterns():
        assert base.instances_of(pattern) == reference.instances_in_order(base, pattern)
    assert to_xml(base.to_xml(auxiliary=auxiliary)) == to_xml(
        reference.render_xml(base, auxiliary=auxiliary)
    )
    result = ExtractionResult(base, auxiliary)
    for pattern in base.patterns():
        assert result.tuples(pattern) == frozenset(
            reference.anchor(instance) + (instance.text(),)
            for instance in reference.instances_in_order(base, pattern)
        )


def _extract(program, fetcher=None, **inputs) -> PatternInstanceBase:
    base = Extractor(program, fetcher=fetcher).extract(**inputs)
    assert_orders_as_reference(base, program.auxiliary_patterns)
    return base


@pytest.mark.parametrize("items", [1, 3, 16])
def test_figure5_runs_and_strings(items):
    document = parse_html(ebay_page(count=items, seed=items), url="www.ebay.com")
    base = _extract(figure5_program(), document=document)
    assert any(instance.is_sequence_instance for instance in _all_instances(base))
    assert base.count("currency") > 0  # subtext string instances


def test_monitoring_wrappers():
    shop = competitor_page("Competitor 1", competitor_prices(12, seed=3))
    assert _extract(parse_elog(PRICE_WRAPPER), document=parse_html(shop)).count("offer") == 12
    board = departures_page("Vienna", generate_flights(20, seed=5))
    assert _extract(parse_elog(BOARD_WRAPPER), document=parse_html(board)).count("flight") == 20


@pytest.mark.parametrize("wrapper", [FORWARD_REFERENCE, NEGATED_REFERENCE, FIRSTSUBTREE])
def test_condition_wrappers(wrapper):
    _extract(parse_elog(wrapper), document=parse_html(PAGE))


def test_crawl_with_attribute_strings():
    web = SimulatedWeb()
    web.publish(
        "shop.test/list",
        '<body><ul><li><a href="shop.test/item/1">one</a></li>'
        '<li><a href="shop.test/item/2">two</a></li></ul></body>',
    )
    web.publish("shop.test/item/1", "<body><h1>Item one</h1></body>")
    web.publish("shop.test/item/2", "<body><h1>Item two</h1></body>")
    base = _extract(parse_elog(CRAWL), fetcher=web, url="shop.test/list")
    assert base.count("itemurl") == 2  # subatt string instances
    assert base.count("title") == 2


def test_hand_built_runs_and_memberless_parents():
    page = parse_html(PAGE)
    cells = page.find_all("td")
    base = PatternInstanceBase()
    root = base.add_document_root(page, url="shop.test")
    run = base.add_instance(PatternInstance("run", root, nodes=cells[2:4]))
    empty = base.add_instance(PatternInstance("run", root, nodes=[], value="none"))
    late = base.add_instance(PatternInstance("cell", run, node=cells[3]))
    early = base.add_instance(PatternInstance("cell", run, node=cells[0]))
    label = base.add_instance(PatternInstance("note", late, value="after the cell"))
    # String instances under parents without member nodes: an empty run, a
    # string, and no parent at all.
    base.add_instance(PatternInstance("note", empty, value="under the empty run"))
    base.add_instance(PatternInstance("note", label, value="under a string"))
    base.add_instance(PatternInstance("orphan", None, value="no parent"))
    assert_orders_as_reference(base)
    assert base.instances_of("cell") == [early, late]
    assert [instance.anchor() for instance in base.instances_of("note")] == [
        (0, 1), (0, 1), (cells[3].preorder_index, 1)
    ]
    # A node given beside an empty run is not a member (member_nodes is []).
    assert PatternInstance("x", None, node=cells[1], nodes=[]).anchor() == (0, 1)
