"""Uniform result views over facts, node selections and instance bases."""

from __future__ import annotations

from contextlib import suppress
from dataclasses import replace

from repro import Session
from repro.api.results import ExtractionResult, FactsResult, SelectionResult
from repro.datalog import parse_program
from repro.html import parse_html
from repro.mdatalog import MonadicProgram
from repro.tree import tree
from repro.xmlgen import to_xml

ITALIC = MonadicProgram.parse(
    """
    italic(X) :- label_i(X).
    italic(X) :- italic(X0), firstchild(X0, X).
    italic(X) :- italic(X0), nextsibling(X0, X).
    """,
    query_predicates=["italic"],
)

PAGE = """
<html><body><table>
  <tr><td class="model">Reflexa &lt;35&gt;</td><td class="price">$ 120.00</td></tr>
  <tr><td class="model">Panorama II</td><td class="price">EUR 89.50</td></tr>
</table></body></html>
"""

WRAPPER = """
offer(S, X)  <- document(_, S), subelem(S, ?.tr, X)
model(S, X)  <- offer(_, S), subelem(S, (?.td, [(class, model, exact)]), X)
price(S, X)  <- offer(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
"""


def test_facts_result_views_without_a_document():
    result = Session().query(
        parse_program("p(X, Y) :- e(X, Y)."), {"e": {(1, 2), (3, 4)}}
    )
    assert isinstance(result, FactsResult)
    assert result.tuples("p") == {(1, 2), (3, 4)}
    assert result.count("p") == 2
    assert "p" in result and "q" not in result
    assert result.nodes("p") == ()  # no document to resolve nodes against
    assert result.texts("p") == ("1 2", "3 4")


def test_facts_result_resolves_nodes_through_the_document():
    document = tree(("doc", ("i", ("b",)), ("a",)))
    result = Session().query(ITALIC.to_datalog_program(), document)
    nodes = result.nodes("italic")
    assert [node.label for node in nodes] == ["i", "b", "a"]
    assert result.texts("italic") == tuple(n.normalized_text() for n in nodes)
    # Non-node facts (binary tree relations) degrade to empty node views.
    assert result.nodes("firstchild") == ()


def test_selection_result_views_and_lazy_aux_resolution():
    document = tree(("doc", ("i", ("b",)), ("a",)))
    program = MonadicProgram.parse(
        """
        aux(X) :- label_i(X).
        hit(X) :- aux(X0), firstchild(X0, X).
        """,
        query_predicates=["hit"],
    )
    result = Session().query(program, document)
    assert isinstance(result, SelectionResult)
    assert result.predicates() == {"hit"}
    assert result.tuples("hit") == {(2,)}
    # The auxiliary predicate is resolvable on demand through the evaluator,
    # and membership agrees with resolvability (not with predicates()).
    assert [node.label for node in result.nodes("aux")] == ["i"]
    assert "aux" in result and "hit" in result
    assert "never_defined" not in result
    assert result.nodes("never_defined") == ()


def test_views_are_memoised():
    result = Session().query(parse_program("p(X) :- e(X)."), {"e": {(1,)}})
    assert result.tuples("p") is result.tuples("p")
    assert result.texts("p") is result.texts("p")


def test_extraction_result_views():
    document = parse_html(PAGE, url="cameras.example/offers")
    result = Session().extract(WRAPPER, document=document)
    assert isinstance(result, ExtractionResult)
    assert {"offer", "model", "price"} <= result.patterns()
    assert result.count("offer") == 2
    assert result.count() == result.instance_base.count()
    # The textual view un-escapes scraped entities; document order holds.
    assert result.texts("model") == ("Reflexa <35>", "Panorama II")
    assert len(result.instances("offer")) == 2
    # The relational view carries (anchor, sub-anchor, text) triples.
    assert {entry[-1] for entry in result.tuples("price")} == {"$ 120.00", "EUR 89.50"}
    assert result.nodes("model")[0].label == "td"


def test_no_caller_edits_the_program_another_caller_runs():
    """Every call over one wrapper text shares one parsed program, so the
    program is a value: whatever one caller tries on
    ``session.wrapper(TEXT).program`` never reaches another caller's
    extraction of TEXT, single or batched."""
    document = parse_html(PAGE, url="cameras.example/offers")
    session = Session()
    before = session.extract(WRAPPER, document=document)
    shared = session.wrapper(WRAPPER).program
    offer_rule = shared.rules[0]
    edits = (
        lambda: shared.auxiliary_patterns.add("offer"),
        lambda: setattr(shared, "auxiliary_patterns", {"offer"}),
        lambda: shared.rules.append(offer_rule),
        lambda: setattr(shared, "rules", [offer_rule]),
    )
    for edit in edits:
        with suppress(AttributeError):  # FrozenInstanceError is one
            edit()
    # A caller that wants the edit makes a new program.
    hidden = replace(shared, auxiliary_patterns={"offer"})
    assert session.extract(hidden, document=document).auxiliary == ("offer",)
    after = session.extract(WRAPPER, document=document)
    [batched] = session.extract_many(WRAPPER, [document])
    for result in (after, batched):
        assert result.auxiliary == before.auxiliary == ()
        assert result.patterns() == before.patterns()
        assert to_xml(result.to_xml()) == to_xml(before.to_xml())


def test_extraction_result_to_xml_uses_recorded_auxiliaries():
    document = parse_html(PAGE, url="cameras.example/offers")
    session = Session()
    program = replace(session.wrapper(WRAPPER).program, auxiliary_patterns={"offer"})
    result = session.extract(program, document=document)
    xml = result.to_xml(root_name="offers")
    # offers are auxiliary: models/prices are promoted to the root.
    assert xml.name == "offers"
    assert [child.name for child in xml.children[:2]] == ["model", "price"]
