"""Windowed ``before`` / ``after`` conditions agree with a full scan.

The extractor bisects each context condition's memoised witnesses to its
distance window, and tests a condition that binds nothing without trying
its witnesses one by one.  ``tests/elog/reference.py`` rescans the scope per
candidate and tries every witness.  Seeded random programs with random
tolerances (``min > max``, ``min = 0``, negative bounds, huge ``max``,
negation, bound witnesses, binding paths, and a bound witness that a later
pattern reference rejects) must derive the same XML, the same per-pattern
counts and the same bindings on every instance, on eBay, market and flight
pages and on a page of nested tables.
"""

from __future__ import annotations

import random

import pytest

from repro.elog import (
    AfterCondition,
    BeforeCondition,
    ConceptCondition,
    DocumentSource,
    ElementPath,
    ElogProgram,
    ElogRule,
    Extractor,
    PatternReference,
    SubElem,
    SubSequence,
)
from repro.html import parse_html
from repro.tree import Node
from repro.web.sites.ebay import ebay_page
from repro.web.sites.flights import departures_page, generate_flights
from repro.web.sites.markets import competitor_page, competitor_prices
from repro.xmlgen import to_xml

from .reference import ReferenceExtractor

ANY_DOCUMENT = DocumentSource("_", is_variable=True)

WITNESS_PATHS = [
    ".td",
    ".tr",
    ".a",
    ".table",
    ".hr",
    ".th",
    "(.td, [(class, price, exact)])",
    "(.table, [(elementtext, item, substr)])",
    # a binding path: its witnesses extend the bindings without a variable
    r"(.td, [(elementtext, \var[V].*, regvar)])",
]
TARGET_PATHS = ["?.td", "?.tr", "?.a", "?.table", "?.th"]
MINIMA = [0, 0, 0, 1, 2, 5, -3]
MAXIMA = [0, 1, 2, 3, 30, 10 ** 9, -1]


# Nested tables: a witness and its descendant may both match, so witnesses
# sorted by subtree end are not in document order.
NESTED = """
<html><body>
<table class="outer"><tr><td>item <a href="/1">one</a></td>
  <td><table class="inner"><tr>
    <td class="price">EUR 1</td><td class="dest">Rome</td>
  </tr></table></td>
  <td class="price">EUR 2</td></tr></table>
<table><tr><td><table><tr><td>
  <table><tr><td class="price">$ 3</td></tr></table>
</td></tr></table></td>
  <td class="dest">Oslo</td></tr></table>
<hr/><table><tr><td>item tail</td><td class="price">EUR 4</td></tr></table>
</body></html>
"""


def _pages():
    return {
        "ebay": ebay_page(count=7, seed=11),
        "market": competitor_page("Competitor 2", competitor_prices(9, seed=4)),
        "flights": departures_page("Vienna", generate_flights(8, seed=6)),
        "nested": NESTED,
    }


def _context_condition(rng, bind=None):
    kind = rng.choice((BeforeCondition, AfterCondition))
    low = rng.choice(MINIMA + [rng.randint(0, 40)])
    high = rng.choice(MAXIMA + [rng.randint(0, 40)])
    return kind(
        path=ElementPath.parse(rng.choice(WITNESS_PATHS)),
        min_distance=low,
        max_distance=high,
        bind=bind,
        negated=bind is None and rng.random() < 0.25,
    )


def _conditions(rng):
    conditions = []
    for number in range(rng.randint(1, 3)):
        bind = f"Y{number}" if rng.random() < 0.5 else None
        conditions.append(_context_condition(rng, bind))
        if bind is not None and rng.random() < 0.7:
            conditions.append(
                PatternReference("hit", bind, negated=rng.random() < 0.2)
                if rng.random() < 0.7
                else ConceptCondition("isCurrency", bind)
            )
    return tuple(conditions)


def _program(seed):
    rng = random.Random(seed)
    rules = []
    rules.append(
        ElogRule("row", "document", SubElem(ElementPath.parse("?.tr")), document=ANY_DOCUMENT)
    )
    hits = ["(?.td, [(class, price, exact)])", "(?.td, [(class, dest, exact)])"]
    if rng.random() < 0.5:
        hits.append("?.a")
    for path in hits:
        rules.append(
            ElogRule("hit", "document", SubElem(ElementPath.parse(path)), document=ANY_DOCUMENT)
        )
    # The first cell of a page is no hit, so a cell's first witness is
    # rejected and the search backtracks to a later one.
    rules.append(
        ElogRule(
            "backtracked",
            "document",
            SubElem(ElementPath.parse("?.td")),
            (
                BeforeCondition(ElementPath.parse(".td"), 0, rng.choice([30, 10 ** 9]), bind="Y"),
                PatternReference("hit", "Y"),
            ),
            document=ANY_DOCUMENT,
        )
    )
    # On the nested page a cell's window holds a cell and its descendants,
    # whose subtree ends are not in document order; Y binds the first one.
    rules.append(
        ElogRule(
            "nearest",
            "document",
            SubElem(ElementPath.parse("?.td")),
            (BeforeCondition(ElementPath.parse(".td"), 0, rng.randint(2, 6), bind="Y"),),
            document=ANY_DOCUMENT,
        )
    )
    for number in range(rng.randint(2, 4)):
        if rng.random() < 0.5:
            rule = ElogRule(
                f"cell{number}", "row", SubElem(ElementPath.parse("?.td")), _conditions(rng)
            )
        else:
            rule = ElogRule(
                f"node{number}",
                "document",
                SubElem(ElementPath.parse(rng.choice(TARGET_PATHS))),
                _conditions(rng),
                document=ANY_DOCUMENT,
            )
        rules.append(rule)
    # A run of sibling tables, as Figure 5's tableseq, with random tolerances.
    rules.append(
        ElogRule(
            "run",
            "document",
            SubSequence(
                scope=ElementPath.parse(".body"),
                first=ElementPath.parse(".table"),
                last=ElementPath.parse(".table"),
            ),
            (_context_condition(rng), _context_condition(rng)),
            document=ANY_DOCUMENT,
        )
    )
    return ElogProgram(rules)


def _value(value):
    if isinstance(value, Node):
        return ("node", value.preorder_index)
    return ("text", value)


def _outcome(base, program):
    xml = to_xml(base.to_xml(auxiliary=program.auxiliary_patterns))
    counts = {pattern: base.count(pattern) for pattern in base.patterns()}
    bindings = [
        (
            pattern,
            [node.preorder_index for node in instance.member_nodes()],
            instance.value,
            sorted((name, _value(value)) for name, value in instance.bindings.items()),
        )
        for pattern in base.patterns()
        for instance in base.instances_of(pattern)
    ]
    return xml, counts, bindings


@pytest.mark.parametrize("page", sorted(_pages()))
@pytest.mark.parametrize("seed", range(16))
def test_windowed_conditions_match_a_full_scan(page, seed):
    document = parse_html(_pages()[page])
    program = _program(seed)
    actual = _outcome(Extractor(program).extract(document=document), program)
    expected = _outcome(ReferenceExtractor(program).extract(document=document), program)
    assert actual == expected
    assert expected[1]["backtracked"] > 0
