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

The program is given in its textual form (:data:`FIGURE5_TEXT`, parsed by the
Elog parser); ``tests/elog/test_figure5_ebay.py`` builds the same wrapper
through the rule constructors and checks that the two agree.
"""

from __future__ import annotations

from .ast import ElogProgram
from .parser import parse_elog

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
