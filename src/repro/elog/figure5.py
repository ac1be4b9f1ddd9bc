"""The eBay extraction program of Figure 5.

The program below is the Figure 5 wrapper, with two pragmatic adaptations
documented in DESIGN.md / EXPERIMENTS.md:

* it runs against the synthetic eBay result pages generated by
  :mod:`repro.web.sites.ebay` (same structural idioms: a header table whose
  text contains "item", one table per offered item, an ``hr`` after the last
  item, hyperlinked item descriptions, currency-bearing price cells, a bids
  cell following the price cell);
* the ``itemdes`` path uses ``?.td.?.a`` (the hyperlinked description) where
  the paper's listing abbreviates the content path.

Both the textual form (:data:`FIGURE5_TEXT`, parsed by the Elog parser) and a
programmatically constructed form are provided; a test asserts they are
equivalent.
"""

from __future__ import annotations

from .ast import (
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
from .epath import AttributeCondition, ElementPath
from .parser import parse_elog
from .textpath import TextPath

FIGURE5_TEXT = r"""
tableseq(S, X) <- document("www.ebay.com/", S),
                  subsq(S, (.body, []), (.table, []), (.table, []), X),
                  before(S, X, (.table, [(elementtext, item, substr)]), 0, 0, _, _),
                  after(S, X, .hr, 0, 0, _, _)
record(S, X)   <- tableseq(_, S), subelem(S, .table, X)
itemdes(S, X)  <- record(_, S), subelem(S, (?.td.?.a, []), X)
price(S, X)    <- record(_, S), subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X), isCurrency(Y)
bids(S, X)     <- record(_, S), subelem(S, ?.td, X), before(S, X, .td, 0, 30, Y, _), price(_, Y)
currency(S, X) <- price(_, S), subtext(S, \var[Y], X), isCurrency(Y)
"""


def figure5_program() -> ElogProgram:
    """The Figure 5 program, parsed from its textual form."""
    return parse_elog(FIGURE5_TEXT)


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
