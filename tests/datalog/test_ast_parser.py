"""Tests for the datalog AST and parser."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.datalog import DatalogSyntaxError, parse_program, parse_rules
from repro.datalog.ast import Atom, Constant, Literal, Rule, Variable

X, Y = Variable("X"), Variable("Y")


def test_rule_str_and_fact():
    r = Rule(Atom("p", (X,)), (Literal(Atom("q", (X,))), Literal(Atom("r", (X,)), negated=True)))
    assert str(r) == "p(X) :- q(X), not r(X)."
    f = Rule(Atom("q", (Constant(1),)))
    assert not f.body and not f.head.variables()


def test_rule_safety():
    q_x = Literal(Atom("q", (X,)))
    safe = Rule(Atom("p", (X,)), (q_x,))
    unsafe_head = Rule(Atom("p", (X, Y)), (q_x,))
    unsafe_negation = Rule(Atom("p", (X,)), (q_x, Literal(Atom("r", (Y,)), negated=True)))
    assert safe.is_safe()
    assert not unsafe_head.is_safe()
    assert not unsafe_negation.is_safe()


def test_program_predicates_and_size():
    program = parse_program(
        """
        p(X) :- e(X, Y), q(Y).
        q(X) :- base(X).
        """
    )
    assert program.idb_predicates() == {"p", "q"}
    assert program.edb_predicates == {"e", "base"}
    assert program.size() == 3 + 2


def test_parse_example_2_1_program():
    rules = parse_rules(
        """
        % Example 2.1 of the paper
        Italic(X) :- label_i(X).
        Italic(X) :- Italic(X0), firstchild(X0, X).
        Italic(X) :- Italic(X0), nextsibling(X0, X).
        """
    )
    assert len(rules) == 3
    assert rules[0].head.predicate == "Italic"
    assert rules[1].body[1].atom.predicate == "firstchild"


def test_parse_arrow_and_not_and_strings():
    rules = parse_rules('ok(X) <- node(X), not bad(X), name(X, "eBay item").')
    assert rules[0].body[1].negated
    assert rules[0].body[2].atom.terms[1] == Constant("eBay item")


def test_parse_numbers():
    rules = parse_rules("dist(X, 3) :- near(X, 0.5).")
    assert rules[0].head.terms[1] == Constant(3)
    assert rules[0].body[0].atom.terms[1] == Constant(0.5)


def test_parse_facts_and_zero_arity():
    rules = parse_rules("start. edge(a, b).")
    assert rules[0].head.predicate == "start"
    assert rules[0].head.arity == 0
    assert rules[1].head.terms == (Constant("a"), Constant("b"))


def test_parse_atom_text():
    (fact,) = parse_rules("price(X).")
    assert fact.head == Atom("price", (X,)) and not fact.body
    with pytest.raises(DatalogSyntaxError):
        parse_rules("price(X) extra.")


def test_parse_errors():
    with pytest.raises(DatalogSyntaxError):
        parse_rules("p(X :- q(X).")
    with pytest.raises(DatalogSyntaxError):
        parse_rules("p(X) :- q(X)")  # missing dot
    with pytest.raises(DatalogSyntaxError):
        parse_rules("p($) .")


@given(value=st.text())
def test_string_constants_round_trip_through_str(value):
    # Constant.__str__ prints strings with repr; the parser must decode
    # every escape repr writes (quotes, backslashes, \n, \t, \x, \u, \U).
    parsed = parse_program(f"q(X, {Constant(value)}) :- r(X).").rules[0]
    assert parsed.head.terms[1] == Constant(value)
    assert parse_program(str(parsed)).rules[0] == parsed


def test_string_escapes_decode_to_their_characters():
    rules = parse_rules(r"""q("a\"b", 'it\'s', "c:\\x", "t\tn\n", "\x41\u00e9").""")
    terms = rules[0].head.terms
    assert [term.value for term in terms] == ['a"b', "it's", "c:\\x", "t\tn\n", "A\u00e9"]


@pytest.mark.parametrize(
    "text, line, column",
    [
        (r'p("a\qb").', 1, 5),
        (r'p("x\x4").', 1, 5),
        ('p(1,\n  "ab\\U00110000").', 2, 6),
        ('p("line\none\\z").', 2, 4),
    ],
)
def test_malformed_string_escape_is_a_located_syntax_error(text, line, column):
    with pytest.raises(DatalogSyntaxError) as raised:
        parse_rules(text)
    assert (raised.value.line, raised.value.column) == (line, column)
    report = analyze(text, kind="datalog")
    assert [d.rule_id for d in report] == ["D000"]


def test_program_rules_for_and_str():
    program = parse_program("p(X) :- q(X). p(X) :- r(X). s(X) :- p(X).")
    assert [rule.head.predicate for rule in program.rules] == ["p", "p", "s"]
    assert "s(X) :- p(X)." in str(program)
