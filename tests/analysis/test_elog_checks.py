"""Per-rule coverage of the ``E0xx`` Elog wrapper checks.

Each rule id gets a seeded-bad wrapper that triggers it and a clean
wrapper that does not.  The Figure 5 eBay wrapper doubles as the
canonical clean program (its ``\\var[Y]`` regvar bindings exercise the
trickiest part of E004).
"""

from __future__ import annotations

from repro.analysis import ERROR, WARNING, analyze, check_elog_program
from repro.elog.concepts import ConceptRegistry
from repro.elog.figure5 import FIGURE5_TEXT
from repro.elog.parser import parse_elog

DOCUMENT_RULE = 'tableseq(S, X) <- document("www.example.com/", S), subelem(S, .table, X)'


def program(*rules):
    return parse_elog("\n".join((DOCUMENT_RULE,) + rules))


def diagnostics_for(rule_id, *rules, **kwargs):
    return [
        diagnostic
        for diagnostic in check_elog_program(program(*rules), **kwargs)
        if diagnostic.rule_id == rule_id
    ]


def test_figure5_analyzes_clean():
    assert check_elog_program(parse_elog(FIGURE5_TEXT)) == []


# ---------------------------------------------------------------------------
# E000 syntax
# ---------------------------------------------------------------------------


def test_e000_syntax_error_report():
    report = analyze("record(S, X <- nonsense", kind="elog")
    assert [d.rule_id for d in report] == ["E000"]
    assert report.has_errors


def test_e000_reports_a_malformed_element_path_with_its_line():
    text = (
        'ok(S, X) <- document("www.x.com/", S), subelem(S, .table, X).\n'
        'r(S, X) <- document("www.x.com/", S), subelem(S, .!table, X).'
    )
    [diagnostic] = analyze(text, kind="elog")
    assert diagnostic.rule_id == "E000"
    assert diagnostic.span is not None and diagnostic.span.line == 2
    assert "!table" in diagnostic.message


def test_e000_not_reported_for_parseable_wrappers():
    assert not analyze(FIGURE5_TEXT, kind="elog").has_errors


# ---------------------------------------------------------------------------
# E001 undefined parent pattern
# ---------------------------------------------------------------------------


def test_e001_reports_the_parent_typo_with_a_suggestion():
    [diagnostic] = diagnostics_for(
        "E001",
        "record(S, X) <- tabelseq(_, S), subelem(S, .table, X)",
    )
    assert diagnostic.severity == ERROR
    assert "'tabelseq'" in diagnostic.message
    assert "did you mean 'tableseq'" in diagnostic.message


def test_e001_clean_when_the_parent_is_defined():
    assert not diagnostics_for(
        "E001",
        "record(S, X) <- tableseq(_, S), subelem(S, .table, X)",
    )


# ---------------------------------------------------------------------------
# E002 dead patterns
# ---------------------------------------------------------------------------


def test_e002_reports_a_parent_cycle_detached_from_the_root():
    diagnostics = diagnostics_for(
        "E002",
        "ping(S, X) <- pong(_, S), subelem(S, .td, X)",
        "pong(S, X) <- ping(_, S), subelem(S, .td, X)",
    )
    assert {d.subject for d in diagnostics} == {"ping", "pong"}
    assert all("dead" in d.message for d in diagnostics)


def test_e002_clean_for_a_grounded_chain():
    assert not diagnostics_for(
        "E002",
        "record(S, X) <- tableseq(_, S), subelem(S, .table, X)",
        "cell(S, X) <- record(_, S), subelem(S, .td, X)",
    )


# ---------------------------------------------------------------------------
# E003 undefined pattern references
# ---------------------------------------------------------------------------


def test_e003_positive_reference_never_holds():
    [diagnostic] = diagnostics_for(
        "E003",
        "bids(S, X) <- tableseq(_, S), subelem(S, .td, X),"
        " before(S, X, .td, 0, 30, Y, _), cost(_, Y)",
    )
    assert diagnostic.severity == ERROR
    assert diagnostic.subject == "cost"
    assert "never holds" in diagnostic.message


def test_e003_clean_when_the_referenced_pattern_exists():
    assert not diagnostics_for(
        "E003",
        "cost(S, X) <- tableseq(_, S), subelem(S, .td, X)",
        "bids(S, X) <- tableseq(_, S), subelem(S, .td, X),"
        " before(S, X, .td, 0, 30, Y, _), cost(_, Y)",
    )


# ---------------------------------------------------------------------------
# E004 unbound condition variables
# ---------------------------------------------------------------------------


def test_e004_reports_a_concept_over_an_unbound_variable():
    [diagnostic] = diagnostics_for(
        "E004",
        "price(S, X) <- tableseq(_, S), subelem(S, .td, X), isCurrency(Z)",
    )
    assert diagnostic.severity == ERROR
    assert diagnostic.subject == "Z"
    assert "isCurrency" in diagnostic.message


def test_e004_accepts_regvar_bindings_from_the_extraction_path():
    # Figure 5's price rule: \var[Y] inside the element path binds Y.
    assert not diagnostics_for(
        "E004",
        r"price(S, X) <- tableseq(_, S),"
        r" subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X),"
        r" isCurrency(Y)",
    )


def test_e004_accepts_bind_slots_and_literal_arguments():
    assert not diagnostics_for(
        "E004",
        "cost(S, X) <- tableseq(_, S), subelem(S, .td, X)",
        "bids(S, X) <- tableseq(_, S), subelem(S, .td, X),"
        " before(S, X, .td, 0, 30, Y, _), cost(_, Y)",
    )


# ---------------------------------------------------------------------------
# E005 unknown concepts
# ---------------------------------------------------------------------------


def test_e005_reports_the_concept_typo_with_a_suggestion():
    [diagnostic] = diagnostics_for(
        "E005",
        r"price(S, X) <- tableseq(_, S),"
        r" subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X),"
        r" isCurrrency(Y)",
    )
    assert diagnostic.severity == ERROR
    assert diagnostic.subject == "isCurrrency"
    assert "did you mean 'isCurrency'" in diagnostic.message


def test_e005_respects_a_custom_registry():
    registry = ConceptRegistry()
    registry.register_function("isWidget", lambda value: True)
    diagnostics = diagnostics_for(
        "E005",
        r"item(S, X) <- tableseq(_, S),"
        r" subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X),"
        r" isWidget(Y)",
        concepts=registry,
    )
    assert not diagnostics


# ---------------------------------------------------------------------------
# E006 duplicate rules
# ---------------------------------------------------------------------------


def test_e006_reports_the_textual_duplicate():
    [diagnostic] = diagnostics_for(
        "E006",
        "record(S, X) <- tableseq(_, S), subelem(S, .table, X)",
        "record(S, X) <- tableseq(_, S), subelem(S, .table, X)",
    )
    assert diagnostic.severity == WARNING
    assert diagnostic.subject == "record"


def test_e006_clean_for_distinct_disjunctive_rules():
    assert not diagnostics_for(
        "E006",
        "record(S, X) <- tableseq(_, S), subelem(S, .table, X)",
        "record(S, X) <- tableseq(_, S), subelem(S, .tr, X)",
    )
