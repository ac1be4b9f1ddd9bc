"""Unit tests for condition evaluation and the pattern instance base."""

from __future__ import annotations

import pytest

from repro.elog import (
    AfterCondition,
    BeforeCondition,
    ComparisonCondition,
    ConceptCondition,
    ConditionContext,
    ContainsCondition,
    ElementPath,
    PatternInstance,
    PatternInstanceBase,
    PatternReference,
)
from repro.html import parse_html
from repro.xmlgen import to_xml
from tests.elog.reference import evaluate_condition


PAGE = """
<body>
  <table>
    <tr><td class="name">alpha</td><td class="price">$ 10</td><td class="bids">3 bids</td></tr>
  </table>
  <hr/>
  <p>tail</p>
</body>
"""


@pytest.fixture
def page():
    return parse_html(PAGE)


def context_for(page, target, bindings=None, base=None):
    return ConditionContext(
        parent_node=page.find_first("tr"),
        parent_nodes=None,
        target=target,
        bindings=bindings or {},
        instance_base=base,
    )


def test_before_condition_lists_all_witnesses(page):
    bids_td = page.find_all("td")[2]
    condition = BeforeCondition(path=ElementPath.parse(".td"), min_distance=0,
                                max_distance=100, bind="Y")
    results = evaluate_condition(condition, context_for(page, bids_td))
    assert len(results) == 2  # the name td and the price td both qualify
    bound_classes = {binding["Y"].attributes.get("class") for binding in results}
    assert bound_classes == {"name", "price"}


def test_before_distance_tolerances_and_negation(page):
    bids_td = page.find_all("td")[2]
    immediate = BeforeCondition(path=ElementPath.parse(".td"), min_distance=0, max_distance=0)
    assert len(evaluate_condition(immediate, context_for(page, bids_td))) == 1
    name_td = page.find_all("td")[0]
    # nothing precedes the first cell within the row ...
    none_before = BeforeCondition(path=ElementPath.parse(".td"))
    assert evaluate_condition(none_before, context_for(page, name_td)) == []
    # ... so the negated form succeeds for it and fails for the bids cell
    negated = BeforeCondition(path=ElementPath.parse(".td"), negated=True)
    assert evaluate_condition(negated, context_for(page, name_td)) == [{}]
    assert evaluate_condition(negated, context_for(page, bids_td)) == []


def test_after_condition_and_negation(page):
    name_td = page.find_all("td")[0]
    after = AfterCondition(path=ElementPath.parse(".td"), min_distance=0, max_distance=50)
    assert evaluate_condition(after, context_for(page, name_td))
    not_after = AfterCondition(path=ElementPath.parse(".img"), negated=True)
    assert evaluate_condition(not_after, context_for(page, name_td)) == [{}]


def test_contains_condition_with_binding(page):
    row = page.find_first("tr")
    condition = ContainsCondition(path=ElementPath.parse("(.td, [(class, price, exact)])"), bind="P")
    results = evaluate_condition(condition, context_for(page, row))
    assert len(results) == 1
    assert results[0]["P"].attributes.get("class") == "price"
    missing = ContainsCondition(path=ElementPath.parse(".video"))
    assert evaluate_condition(missing, context_for(page, row)) == []


def test_concept_and_comparison_conditions(page):
    price_td = page.find_all("td")[1]
    concept = ConceptCondition("isCurrency", "X")
    # the td text is "$ 10": the whole text is not a currency token but
    # contains the symbol, which the built-in accepts
    assert evaluate_condition(concept, context_for(page, price_td)) == [{}]
    negated = ConceptCondition("isCountry", "X", negated=True)
    assert evaluate_condition(negated, context_for(page, price_td)) == [{}]
    comparison = ComparisonCondition("lt", "X", "LIMIT")
    ok = evaluate_condition(comparison, context_for(page, price_td, bindings={"LIMIT": "20"}))
    assert ok == [{}]
    fail = evaluate_condition(comparison, context_for(page, price_td, bindings={"LIMIT": "5"}))
    assert fail == []


def test_pattern_reference_condition(page):
    base = PatternInstanceBase()
    root = base.add_document_root(page)
    price_td = page.find_all("td")[1]
    base.add_instance(PatternInstance(pattern="price", parent=root, node=price_td))
    reference = PatternReference("price", "Y")
    ok = evaluate_condition(
        reference, context_for(page, page.find_all("td")[2], bindings={"Y": price_td}, base=base)
    )
    assert ok == [{}]
    wrong = evaluate_condition(
        reference,
        context_for(page, page.find_all("td")[2], bindings={"Y": page.find_all("td")[0]}, base=base),
    )
    assert wrong == []


def test_instance_base_queries_and_duplicates(page):
    base = PatternInstanceBase()
    root = base.add_document_root(page, url="shop.test")
    row = page.find_first("tr")
    record = base.add_instance(PatternInstance(pattern="record", parent=root, node=row))
    assert record is not None
    duplicate = base.add_instance(PatternInstance(pattern="record", parent=root, node=row))
    assert duplicate is None
    base.add_instance(PatternInstance(pattern="price", parent=record, node=page.find_all("td")[1]))
    base.add_instance(PatternInstance(pattern="note", parent=record, value="string value"))
    assert base.count("record") == 1
    assert base.count() == 4  # document + record + price + note
    assert base.patterns() == ["document", "note", "price", "record"]
    assert base.values_of("note") == ["string value"]
    assert base.node_is_instance_of("price", page.find_all("td")[1])
    assert not base.node_is_instance_of("price", row)


def test_instance_base_xml_with_sequence_and_aux(page):
    base = PatternInstanceBase()
    root = base.add_document_root(page)
    cells = page.find_all("td")
    sequence = base.add_instance(
        PatternInstance(pattern="cells", parent=root, nodes=cells[:2])
    )
    base.add_instance(PatternInstance(pattern="first", parent=sequence, node=cells[0]))
    assert sequence.is_sequence_instance
    assert "alpha" in sequence.text()
    xml = to_xml(base.to_xml(root_name="out", auxiliary=["cells"]))
    assert "<cells>" not in xml
    assert "<first>alpha</first>" in xml
