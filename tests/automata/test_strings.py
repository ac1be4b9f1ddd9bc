"""Tests for the symbol-alphabet NFAs (the horizontal languages)."""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import NFABuilder


def test_symbol_and_concat():
    builder = NFABuilder()
    nfa = builder.sequence(["table", "tr", "td"])
    assert nfa.accepts(["table", "tr", "td"])
    assert not nfa.accepts(["table", "td"])
    assert not nfa.accepts(["table", "tr", "td", "td"])


def test_union_and_star():
    builder = NFABuilder()
    td_or_th = builder.union(builder.symbol("td"), builder.symbol("th"))
    row = builder.concat(builder.symbol("tr"), builder.star(td_or_th))
    assert row.accepts(["tr"])
    assert row.accepts(["tr", "td", "th", "td"])
    assert not row.accepts(["tr", "div"])


def test_plus_and_optional():
    builder = NFABuilder()
    plus = builder.plus(builder.symbol("a"))
    assert not plus.accepts([])
    assert plus.accepts(["a"])
    assert plus.accepts(["a", "a", "a"])
    optional = builder.optional(builder.symbol("a"))
    assert optional.accepts([])
    assert optional.accepts(["a"])
    assert not optional.accepts(["a", "a"])


def test_any_symbol_wildcard():
    builder = NFABuilder()
    pattern = builder.concat(
        builder.symbol("body"), builder.concat(builder.star(builder.any_symbol()), builder.symbol("td"))
    )
    assert pattern.accepts(["body", "td"])
    assert pattern.accepts(["body", "table", "tr", "td"])
    assert not pattern.accepts(["body", "table"])


def test_empty_language_fragment():
    builder = NFABuilder()
    empty = builder.empty()
    assert empty.accepts([])
    assert not empty.accepts(["a"])


# Regular expressions over one-letter symbols, as nested tuples: a leaf is
# ``(symbol,)``, ``("any",)`` or ``("empty",)``; an inner node names its
# combinator.
_SYMBOLS = ("a", "b", "c")
_QUANTIFIERS = {"star": "*", "plus": "+", "optional": "?"}

_expressions = st.recursive(
    st.sampled_from(_SYMBOLS + ("any", "empty")).map(lambda leaf: (leaf,)),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("concat", "union")), inner, inner),
        st.tuples(st.sampled_from(("star", "plus", "optional")), inner),
    ),
    max_leaves=8,
)


def _nfa(builder, expression):
    operator, *operands = expression
    if not operands:
        if operator == "any":
            return builder.any_symbol()
        if operator == "empty":
            return builder.empty()
        return builder.symbol(operator)
    parts = [_nfa(builder, operand) for operand in operands]
    return getattr(builder, operator)(*parts)


def _regex(expression):
    operator, *operands = expression
    if not operands:
        return {"any": ".", "empty": "(?:)"}.get(operator, operator)
    parts = [_regex(operand) for operand in operands]
    if operator == "concat":
        return f"(?:{parts[0]}{parts[1]})"
    if operator == "union":
        return f"(?:{parts[0]}|{parts[1]})"
    return f"(?:{parts[0]}){_QUANTIFIERS[operator]}"


@settings(max_examples=200, deadline=None)
@given(_expressions, st.lists(st.sampled_from(_SYMBOLS + ("d",)), max_size=6))
def test_thompson_construction_agrees_with_python_regex(expression, word):
    """The combinators build the language of the expression; the symbol
    ``d`` occurs in no expression, so only the wildcard can read it."""
    nfa = _nfa(NFABuilder(), expression)
    expected = re.fullmatch(_regex(expression), "".join(word)) is not None
    assert nfa.accepts(word) == expected
