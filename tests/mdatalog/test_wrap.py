"""Tests for the Section 2.1 output-tree (tree minor) construction."""

from __future__ import annotations

from repro.mdatalog import (
    MonadicProgram,
    MonadicTreeEvaluator,
    assignment_from_queries,
    wrap_tree,
)
from repro.tree import tree
from repro.xmlgen import to_xml


def make_document():
    return tree(
        (
            "html",
            (
                "body",
                ("table", ("tr", ("td", "text:alpha"), ("td", "text:1")),
                          ("tr", ("td", "text:beta"), ("td", "text:2"))),
                ("p", "text:footer"),
            ),
        )
    )


def test_wrap_tree_preserves_hierarchy_and_order():
    document = make_document()
    selections = {
        "record": document.find_all("tr"),
        "field": document.find_all("td"),
    }
    result = wrap_tree(document, selections, root_name="items")
    assert result.name == "items"
    records = result.find_all("record")
    assert len(records) == 2
    assert [len(record.find_all("field")) for record in records] == [2, 2]
    assert records[0].find_all("field")[0].text == "alpha"
    assert records[1].find_all("field")[1].text == "2"


def test_wrap_tree_skips_unselected_intermediate_nodes():
    document = make_document()
    # select only table and td: the intermediate tr nodes disappear but the
    # td nodes stay below the table (edge contraction along unselected paths)
    selections = {"tbl": document.find_all("table"), "cell": document.find_all("td")}
    result = wrap_tree(document, selections)
    table_element = result.find("tbl")
    assert table_element is not None
    assert len(table_element.find_all("cell")) == 4


def test_wrap_tree_empty_selection():
    document = make_document()
    assert wrap_tree(document, {}).children == []


def test_wrap_tree_multiple_predicates_on_one_node():
    document = make_document()
    first_td = document.find_all("td")[0]
    selections = {"a": [first_td], "b": [first_td]}
    result = wrap_tree(document, selections)
    assert result.children[0].name == "a+b"
    custom = wrap_tree(
        document, selections, label_for=lambda node, predicates: predicates[-1]
    )
    assert custom.children[0].name == "b"


def test_wrap_with_program_hides_auxiliary_predicates():
    document = make_document()
    program = MonadicProgram.parse(
        """
        rowaux(X) :- label_tr(X).
        cell(X) :- rowaux(X0), firstchild(X0, X).
        """,
        query_predicates=["cell"],
    )
    selections = MonadicTreeEvaluator(program).evaluate(document)
    assert set(selections) == {"cell"}
    result = wrap_tree(document, selections)
    assert result.find("rowaux") is None
    assert [cell.text for cell in result.find_all("cell")] == ["alpha", "beta"]


def test_assignment_from_queries_orders_predicates():
    document = make_document()
    node = document.find_all("td")[0]
    assignment = assignment_from_queries(document, {"z": [node], "a": [node]})
    assert assignment[node.preorder_index] == ["a", "z"]


def test_wrap_tree_output_serialises_to_xml():
    document = make_document()
    result = wrap_tree(document, {"cell": document.find_all("td")})
    xml = to_xml(result)
    assert xml.count("<cell>") == 4
    assert "alpha" in xml
