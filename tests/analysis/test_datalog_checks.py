"""Per-rule coverage of the ``D0xx`` datalog checks.

Every rule id gets (a) a seeded-bad program that triggers it and (b) a
clean program that does not — so a check can neither silently die nor
grow false positives without a test noticing.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    ERROR,
    INFO,
    TREE_SIGNATURE,
    WARNING,
    analyze,
    check_program,
)
from repro.analysis.diagnostics import RULE_CATALOG
from repro.datalog.parser import parse_program

CLEAN_TEXT = """
Italic(X) :- label_i(X).
Italic(X) :- Italic(X0), firstchild(X0, X).
Italic(X) :- Italic(X0), nextsibling(X0, X).
"""


def rules_fired(text, **kwargs):
    report = check_program(parse_program(text), **kwargs)
    return {diagnostic.rule_id for diagnostic in report}


def diagnostics_for(text, rule_id, **kwargs):
    return [
        diagnostic
        for diagnostic in check_program(parse_program(text), **kwargs)
        if diagnostic.rule_id == rule_id
    ]


def test_clean_program_only_reports_the_fragment_info():
    report = check_program(
        parse_program(CLEAN_TEXT),
        edb=TREE_SIGNATURE,
        query_predicates=["Italic"],
    )
    assert [d.rule_id for d in report] == ["D008"]
    assert report[0].severity == INFO


# ---------------------------------------------------------------------------
# D000 syntax
# ---------------------------------------------------------------------------


def test_d000_syntax_error_report_carries_the_position():
    report = analyze("p(X) :- q(X", kind="datalog")
    assert [d.rule_id for d in report] == ["D000"]
    assert report.has_errors
    assert report.diagnostics[0].span is not None


def test_d000_not_reported_for_parseable_text():
    assert "D000" not in {d.rule_id for d in analyze(CLEAN_TEXT, kind="datalog")}


# ---------------------------------------------------------------------------
# D001 safety
# ---------------------------------------------------------------------------


def test_d001_names_the_unbound_head_variable():
    [diagnostic] = diagnostics_for("p(X, Y) :- e(X).", "D001")
    assert diagnostic.severity == ERROR
    assert "Y" in diagnostic.message
    assert "X" not in diagnostic.message.split("head variable(s)")[1].split("never")[0]


def test_d001_names_the_unbound_negated_variable():
    [diagnostic] = diagnostics_for("p(X) :- e(X), not f(Y).", "D001")
    assert "Y" in diagnostic.message
    assert "negated-body" in diagnostic.message


def test_d001_clean_for_safe_rules():
    assert "D001" not in rules_fired("p(X) :- e(X), not f(X).")


# ---------------------------------------------------------------------------
# D002 stratification
# ---------------------------------------------------------------------------


def test_d002_reports_the_negative_cycle():
    text = """
    win(X) :- move(X, Y), not win(Y).
    """
    [diagnostic] = diagnostics_for(text, "D002")
    assert diagnostic.severity == ERROR
    assert "win" in diagnostic.message
    assert "-[not]->" in diagnostic.message


def test_d002_reports_a_longer_cycle_through_both_predicates():
    text = """
    p(X) :- e(X), not q(X).
    q(X) :- p(X).
    """
    [diagnostic] = diagnostics_for(text, "D002")
    assert "p" in diagnostic.message and "q" in diagnostic.message


def test_d002_clean_for_stratified_negation():
    text = """
    q(X) :- e(X).
    p(X) :- f(X), not q(X).
    """
    assert "D002" not in rules_fired(text)


# ---------------------------------------------------------------------------
# D003 arities
# ---------------------------------------------------------------------------


def test_d003_reports_both_arities():
    text = """
    p(X) :- q(X, Y), r(Y).
    s(X) :- q(X).
    """
    [diagnostic] = diagnostics_for(text, "D003")
    assert "q/1" in diagnostic.message and "q/2" in diagnostic.message
    assert diagnostic.subject == "q"


def test_d003_clean_when_arities_agree():
    assert "D003" not in rules_fired("p(X) :- q(X, Y), r(Y).\ns(X) :- q(X, X).")


# ---------------------------------------------------------------------------
# D004 underivable body atoms
# ---------------------------------------------------------------------------


def test_d004_catches_a_label_typo_against_the_tree_signature():
    [diagnostic] = diagnostics_for("p(X) :- labell_i(X).", "D004", edb=TREE_SIGNATURE)
    assert diagnostic.severity == ERROR
    assert "labell_i" in diagnostic.message


def test_d004_suggests_the_close_match():
    text = """
    reachable(X) :- root(X).
    reachable(X) :- reachible(X0), child(X0, X).
    """
    [diagnostic] = diagnostics_for(text, "D004", edb=TREE_SIGNATURE)
    assert "did you mean 'reachable'" in diagnostic.message


def test_d004_exempts_engine_builtins_and_label_relations():
    text = "p(X) :- label_weird(X), lt(X, X)."
    assert "D004" not in rules_fired(text, edb=TREE_SIGNATURE)


def test_d004_off_without_an_explicit_signature():
    # The engines seed database facts for undeclared predicates, so "not
    # declared EDB" must not be reported as "never holds".
    assert "D004" not in rules_fired("p(X) :- mystery(X).")


# ---------------------------------------------------------------------------
# D005 singleton variables
# ---------------------------------------------------------------------------


def test_d005_reports_the_singleton():
    [diagnostic] = diagnostics_for("p(X) :- e(X), f(X, Y).", "D005")
    assert diagnostic.severity == WARNING
    assert "Y" in diagnostic.message


def test_d005_respects_the_underscore_convention():
    assert "D005" not in rules_fired("p(X) :- e(X), f(X, _Y).")


# ---------------------------------------------------------------------------
# D006 cartesian products
# ---------------------------------------------------------------------------


def test_d006_reports_variable_disjoint_atom_groups():
    [diagnostic] = diagnostics_for("p(X, Y) :- e(X), f(Y).", "D006")
    assert diagnostic.severity == WARNING
    assert "cartesian" in diagnostic.message


def test_d006_clean_when_atoms_share_variables():
    assert "D006" not in rules_fired("p(X, Y) :- e(X), f(X, Y).")


# ---------------------------------------------------------------------------
# D007 dead rules
# ---------------------------------------------------------------------------


def test_d007_reports_predicates_unreachable_from_the_query():
    text = """
    answer(X) :- e(X).
    orphan(X) :- f(X).
    """
    [diagnostic] = diagnostics_for(text, "D007", query_predicates=["answer"])
    assert diagnostic.subject == "orphan"


def test_d007_follows_dependencies_transitively():
    text = """
    answer(X) :- helper(X).
    helper(X) :- e(X).
    """
    assert "D007" not in rules_fired(text, query_predicates=["answer"])


def test_d007_off_without_query_predicates():
    assert "D007" not in rules_fired("a(X) :- e(X).\nb(X) :- f(X).")


# ---------------------------------------------------------------------------
# D008 fragment classification
# ---------------------------------------------------------------------------


def test_d008_tmnf_program_gets_the_linear_time_verdict():
    report = check_program(parse_program(CLEAN_TEXT), edb=TREE_SIGNATURE)
    [diagnostic] = [d for d in report if d.rule_id == "D008"]
    assert diagnostic.severity == INFO
    assert "linear-time" in diagnostic.message


def test_d008_non_monadic_program_names_why_it_leaves_the_fragment():
    text = "pair(X, Y) :- e(X), e(Y)."
    [diagnostic] = diagnostics_for(text, "D008")
    assert "leaves the linear-time fragment" in diagnostic.message
    assert "semi-naive" in diagnostic.message


# ---------------------------------------------------------------------------
# D009 duplicate rules
# ---------------------------------------------------------------------------


def test_d009_reports_the_duplicate():
    text = """
    p(X) :- e(X).
    p(X) :- e(X).
    """
    [diagnostic] = diagnostics_for(text, "D009")
    assert diagnostic.severity == WARNING


def test_d009_clean_for_distinct_rules():
    assert "D009" not in rules_fired("p(X) :- e(X).\np(X) :- f(X).")


# ---------------------------------------------------------------------------
# D010 EDB-head redefinition
# ---------------------------------------------------------------------------


def test_d010_rejects_rules_deriving_into_the_tree_signature():
    [diagnostic] = diagnostics_for("root(X) :- leaf(X).", "D010", edb=TREE_SIGNATURE)
    assert diagnostic.severity == ERROR
    assert "root" in diagnostic.message


def test_d010_off_without_an_explicit_signature():
    assert "D010" not in rules_fired("root(X) :- leaf(X).")


# ---------------------------------------------------------------------------
# Catalog hygiene
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", sorted(RULE_CATALOG))
def test_every_rule_id_has_a_one_line_description(rule_id):
    assert RULE_CATALOG[rule_id].strip()


def test_report_by_rule_filters_one_rule_id():
    report = analyze(
        parse_program(
            """
            dup(X) :- e(X).
            dup(X) :- e(X).
            unsafe(X, Y) :- e(X).
            """
        )
    )
    assert [d.rule_id for d in report.by_rule("D009")] == ["D009"]
    assert {d.rule_id for d in report.by_rule("D001")} == {"D001"}
    assert report.by_rule("D002") == ()
    assert sum(len(report.by_rule(rule_id)) for rule_id in RULE_CATALOG) == len(report)


def test_diagnostics_are_ordered_by_rule_id():
    text = """
    dup(X) :- e(X).
    dup(X) :- e(X).
    unsafe(X, Y) :- e(X).
    """
    ids = [d.rule_id for d in check_program(parse_program(text))]
    assert ids == sorted(ids)
