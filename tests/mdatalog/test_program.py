"""Tests for MonadicProgram validation and accessors."""

from __future__ import annotations

import pytest

from repro.mdatalog import MonadicityError, MonadicProgram, italic_program


def test_parse_and_query_predicates():
    program = MonadicProgram.parse(
        """
        heading(X) :- label_h1(X).
        aux(X) :- label_div(X).
        """,
        query_predicates=["heading"],
    )
    assert program.query_predicates == frozenset({"heading"})
    assert program.idb_predicates() == {"heading", "aux"}
    assert "label_h1" in program.edb_predicates()


def test_default_query_predicates_are_all_idb():
    program = MonadicProgram.parse("a(X) :- label_p(X). b(X) :- a(X).")
    assert program.query_predicates == frozenset({"a", "b"})


def test_unknown_query_predicate_rejected():
    with pytest.raises(MonadicityError):
        MonadicProgram.parse("a(X) :- label_p(X).", query_predicates=["zzz"])


def test_non_unary_head_rejected():
    with pytest.raises(MonadicityError):
        MonadicProgram.parse("pair(X, Y) :- firstchild(X, Y).")


def test_intensional_predicate_used_binary_rejected():
    with pytest.raises(MonadicityError):
        MonadicProgram.parse(
            """
            p(X) :- label_a(X).
            q(X) :- p(X, X).
            """
        )


def test_unknown_binary_relation_rejected():
    with pytest.raises(MonadicityError):
        MonadicProgram.parse("p(X) :- cousin(X, Y), label_a(Y).")


def test_ternary_atom_rejected():
    with pytest.raises(MonadicityError):
        MonadicProgram.parse("p(X) :- triple(X, Y, Z).")


def test_unsafe_rule_rejected():
    with pytest.raises(MonadicityError):
        MonadicProgram.parse("p(X) :- label_a(Y).")


def test_size_counts_atoms():
    program = italic_program()
    # 3 rules: 1 with a single body atom, 2 with two body atoms.
    assert program.size() == (1 + 1) + (1 + 2) + (1 + 2)
    assert len(program) == 3


def test_to_datalog_program_contains_tree_edb():
    program = italic_program()
    generic = program.to_datalog_program()
    assert "firstchild" in generic.edb_predicates
    assert "label_i" in generic.edb_predicates


def test_uses_negation_flag():
    program = MonadicProgram.parse("p(X) :- label_a(X), not q(X). q(X) :- label_b(X).")
    assert program.uses_negation()
    assert not italic_program().uses_negation()
