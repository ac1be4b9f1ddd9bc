"""Tests for the Elog textual parser."""

from __future__ import annotations

import pytest

from repro.elog import (
    AfterCondition,
    BeforeCondition,
    ComparisonCondition,
    ConceptCondition,
    ContainsCondition,
    ElogSyntaxError,
    FirstSubtreeCondition,
    PatternReference,
    SubAtt,
    SubElem,
    SubSequence,
    SubText,
    figure5_program,
    parse_elog,
    parse_rule,
)
from repro.elog.epath import EPathSyntaxError


def test_parse_simple_rule():
    rule = parse_rule("price(S, X) <- record(_, S), subelem(S, ?.td, X), isCurrency(X).")
    assert rule.pattern == "price"
    assert rule.parent == "record"
    assert isinstance(rule.extraction, SubElem)
    assert rule.extraction.path.steps == ("?", "td")
    assert rule.conditions == (ConceptCondition("isCurrency", "X"),)


def test_parse_document_rule_with_subsq():
    rule = parse_rule(
        'tableseq(S, X) <- document("www.ebay.com/", S), '
        "subsq(S, (.body, []), (.table, []), (.table, []), X), "
        "before(S, X, (.table, [(elementtext, item, substr)]), 0, 0, _, _), "
        "after(S, X, .hr, 0, 0, _, _)"
    )
    assert rule.document is not None
    assert rule.document.url == "www.ebay.com/"
    assert isinstance(rule.extraction, SubSequence)
    assert rule.extraction.first.steps == ("table",)
    assert len(rule.conditions) == 2
    before, after = rule.conditions
    assert isinstance(before, BeforeCondition)
    assert before.max_distance == 0
    assert before.path.conditions[0].attribute == "elementtext"
    assert isinstance(after, AfterCondition)


def test_parse_pattern_reference_and_binding():
    rule = parse_rule(
        "bids(S, X) <- record(_, S), subelem(S, ?.td, X), "
        "before(S, X, .td, 0, 30, Y, _), price(_, Y)"
    )
    before = rule.conditions[0]
    assert isinstance(before, BeforeCondition)
    assert before.bind == "Y"
    reference = rule.conditions[1]
    assert isinstance(reference, PatternReference)
    assert reference.pattern == "price"
    assert reference.argument == "Y"


def test_parse_subtext_subatt_and_concepts():
    program = parse_elog(
        r"""
        currency(S, X) <- price(_, S), subtext(S, \var[Y], X), isCurrency(Y)
        link(S, X) <- itemdes(_, S), subatt(S, href, X)
        """
    )
    assert isinstance(program.rules[0].extraction, SubText)
    assert isinstance(program.rules[1].extraction, SubAtt)
    assert program.rules[1].extraction.path.attribute == "href"


def test_parse_specialisation_rule():
    rule = parse_rule(
        "greentable(S, X) <- table(S, X), contains(X, (.td, [(color, green, exact)]), _)"
    )
    assert rule.is_specialisation()
    assert rule.parent == "table"
    assert isinstance(rule.conditions[0], ContainsCondition)


def test_parse_negated_conditions_and_comparisons():
    rule = parse_rule(
        "cheap(S, X) <- record(_, S), subelem(S, ?.td, X), "
        "notcontains(X, .img), not isCurrency(X), lt(X, Y)"
    )
    contains = rule.conditions[0]
    assert isinstance(contains, ContainsCondition) and contains.negated
    concept = rule.conditions[1]
    assert isinstance(concept, ConceptCondition) and concept.negated
    comparison = rule.conditions[2]
    assert isinstance(comparison, ComparisonCondition)
    assert comparison.operator == "lt"


def test_parse_firstsubtree():
    rule = parse_rule("first(S, X) <- record(_, S), subelem(S, ?.td, X), firstsubtree(S, X)")
    assert any(isinstance(c, FirstSubtreeCondition) for c in rule.conditions)


def test_parse_crawling_with_variable_url():
    rule = parse_rule("detail(S, X) <- itemurl(_, S), document(S, X), subelem(S, ?.h1, X)")
    # document(S, X) here uses a variable: treated as a crawling source
    assert rule.document is not None
    assert rule.document.is_variable


def test_a_crawl_rule_prints_its_parent_pattern():
    # The printed form is the wrapper's content fingerprint: two crawl
    # rules over different parent patterns must not print alike.
    text = "detail(S, X) <- itemurl(_, S), document(S, X), subelem(S, ?.h1, X)."
    rule = parse_rule(text)
    assert str(rule) == text
    assert parse_rule(str(rule)) == rule
    other = parse_rule(text.replace("itemurl", "nexturl"))
    assert str(other) != str(rule)


def test_multi_line_rules_without_dots():
    program = parse_elog(
        """
        record(S, X) <- tableseq(_, S),
                        subelem(S, .table, X)
        item(S, X) <- record(_, S), subelem(S, ?.td, X)
        """
    )
    assert len(program) == 2
    assert program.patterns() == ["record", "item"]


def test_parse_errors():
    with pytest.raises(ElogSyntaxError):
        parse_rule("just text")
    with pytest.raises(ElogSyntaxError):
        parse_rule("p(S, X) <- subelem(S, ?.td, X)")  # no parent, no document
    with pytest.raises(ElogSyntaxError):
        parse_rule("p(S, X) <- r(_, S), subelem(S, X)")  # wrong arity
    with pytest.raises(ElogSyntaxError):
        parse_rule("p(S, X) <- r(_, S), before(S, X)")  # missing path
    bad_path = 'r(S, X) <- document("www.x.com/", S), subelem(S, .!table, X).'
    with pytest.raises(ElogSyntaxError) as raised:
        parse_elog("% a wrapper\n" + bad_path)
    assert raised.value.line == 2
    assert isinstance(raised.value.__cause__, EPathSyntaxError)
    with pytest.raises(ElogSyntaxError):
        parse_rule(bad_path)


def test_figure5_program_parses_to_expected_patterns():
    program = figure5_program()
    assert program.patterns() == [
        "tableseq", "record", "itemdes", "price", "bids", "currency",
    ]
    assert len(program) == 6
    rule_text = str(program)
    assert "subsq" in rule_text
    assert "isCurrency" in rule_text
