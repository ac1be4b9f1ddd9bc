"""Experiment E7: the Figure 5 eBay wrapper on synthetic eBay pages."""

from __future__ import annotations

import pytest

from repro.elog import Extractor, figure5_program
from repro.elog.ast import (
    AfterCondition,
    BeforeCondition,
    ConceptCondition,
    DocumentSource,
    ElogProgram,
    ElogRule,
    PatternReference,
    SubElem,
    SubSequence,
    SubText,
)
from repro.elog.epath import AttributeCondition, ElementPath
from repro.elog.textpath import TextPath
from repro.html import parse_html
from repro.web import SimulatedWeb
from repro.web.sites.ebay import ebay_page, generate_items, perturb_layout, render_page
from repro.xmlgen import to_xml


@pytest.fixture
def items():
    return generate_items(8, seed=42)


@pytest.fixture
def web(items):
    simulated = SimulatedWeb()
    simulated.publish("www.ebay.com", render_page(items))
    return simulated


def extract(web):
    return Extractor(figure5_program(), fetcher=web).extract(url="www.ebay.com")


def test_tableseq_and_records(web, items):
    base = extract(web)
    assert base.count("tableseq") == 1
    assert base.count("record") == len(items)


def test_item_descriptions_match_ground_truth(web, items):
    base = extract(web)
    descriptions = base.values_of("itemdes")
    assert descriptions == [item.description for item in items]


def test_prices_and_currencies(web, items):
    base = extract(web)
    prices = base.values_of("price")
    assert len(prices) == len(items)
    for extracted, item in zip(prices, items):
        assert f"{item.price:.2f}" in extracted
    currencies = base.values_of("currency")
    assert len(currencies) == len(items)
    assert all(c in ("$", "EUR", "GBP") for c in currencies)


def test_bids_cells(web, items):
    base = extract(web)
    bids = base.values_of("bids")
    assert bids == [f"{item.bids} bids" for item in items]


def test_header_and_navigation_not_extracted(web):
    base = extract(web)
    for value in base.values_of("record"):
        assert "home" not in value  # the navigation table is not a record
    assert all("item price bids" not in value for value in base.values_of("record"))


def test_instance_hierarchy_and_xml(web, items):
    base = extract(web)
    records = base.instances_of("record")
    for record in records:
        assert len(record.find_all("itemdes")) == 1
        assert len(record.find_all("price")) == 1
        assert len(record.find_all("bids")) == 1
    xml = to_xml(base.to_xml(root_name="auctions", auxiliary=["tableseq"]))
    assert xml.count("<record>") == len(items)
    assert "<tableseq>" not in xml
    assert "<currency>" in xml


def figure5_program_programmatic() -> ElogProgram:
    """The same wrapper, built through the programmatic rule API."""
    rules = [
        ElogRule(
            pattern="tableseq",
            parent="document",
            document=DocumentSource("www.ebay.com/"),
            extraction=SubSequence(
                scope=ElementPath.parse(".body"),
                first=ElementPath.parse(".table"),
                last=ElementPath.parse(".table"),
            ),
            conditions=(
                BeforeCondition(
                    path=ElementPath(
                        steps=("table",),
                        conditions=(AttributeCondition("elementtext", "item", "substr"),),
                    ),
                    min_distance=0,
                    max_distance=0,
                ),
                AfterCondition(path=ElementPath.parse(".hr"), min_distance=0, max_distance=0),
            ),
        ),
        ElogRule(
            pattern="record",
            parent="tableseq",
            extraction=SubElem(path=ElementPath.parse(".table")),
        ),
        ElogRule(
            pattern="itemdes",
            parent="record",
            extraction=SubElem(path=ElementPath.parse("?.td.?.a")),
        ),
        ElogRule(
            pattern="price",
            parent="record",
            extraction=SubElem(
                path=ElementPath(
                    steps=("?", "td"),
                    conditions=(
                        AttributeCondition("elementtext", r"\var[Y].*", "regvar"),
                    ),
                )
            ),
            conditions=(ConceptCondition("isCurrency", "Y"),),
        ),
        ElogRule(
            pattern="bids",
            parent="record",
            extraction=SubElem(path=ElementPath.parse("?.td")),
            conditions=(
                BeforeCondition(
                    path=ElementPath.parse(".td"),
                    min_distance=0,
                    max_distance=30,
                    bind="Y",
                ),
                PatternReference("price", "Y"),
            ),
        ),
        ElogRule(
            pattern="currency",
            parent="price",
            extraction=SubText(path=TextPath.parse(r"\var[Y]")),
            conditions=(ConceptCondition("isCurrency", "Y"),),
        ),
    ]
    return ElogProgram(rules)


def test_programmatic_and_parsed_programs_agree(web):
    parsed = Extractor(figure5_program(), fetcher=web).extract(url="www.ebay.com")
    programmatic = Extractor(figure5_program_programmatic(), fetcher=web).extract(
        url="www.ebay.com"
    )
    for pattern in ("record", "itemdes", "price", "bids", "currency"):
        assert parsed.values_of(pattern) == programmatic.values_of(pattern)


def test_wrapper_is_robust_to_unrelated_layout_changes(items):
    """Experiment E18: schema-less wrappers survive unrelated page changes."""
    original = render_page(items)
    perturbed = perturb_layout(original, seed=3)
    assert original != perturbed
    program = figure5_program()
    base_original = Extractor(program).extract(document=parse_html(original, url="www.ebay.com"))
    base_perturbed = Extractor(program).extract(document=parse_html(perturbed, url="www.ebay.com"))
    for pattern in ("record", "itemdes", "price", "bids"):
        assert base_original.values_of(pattern) == base_perturbed.values_of(pattern)


def test_wrapper_scales_with_page_size():
    markup = ebay_page(count=60, seed=5)
    base = Extractor(figure5_program()).extract(
        document=parse_html(markup, url="www.ebay.com")
    )
    assert base.count("record") == 60
    assert base.count("price") == 60
