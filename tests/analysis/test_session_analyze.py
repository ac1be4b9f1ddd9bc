"""``Session.analyze``: dispatch, per-fingerprint caching, and the
``on_diagnostics`` policy surfaced through ``EngineOptions`` and the
pipeline builder."""

from __future__ import annotations

import warnings

import pytest

from repro import AnalysisError, EngineOptions, Session
from repro.analysis import AnalysisReport, DiagnosticWarning
from repro.api import Pipeline
from repro.datalog.parser import parse_program
from repro.elog.parser import parse_elog
from repro.mdatalog import MonadicProgram
from repro.web.fetcher import SimulatedWeb

CLEAN_TEXT = """
Italic(X) :- label_i(X).
Italic(X) :- Italic(X0), firstchild(X0, X).
Italic(X) :- Italic(X0), nextsibling(X0, X).
"""

# D003 (arity clash) is error severity for the analyzer but tolerated by
# the engine — exactly the kind of slip the policy layer exists for.
ARITY_CLASH_TEXT = """
p(X) :- q(X, Y), r(Y).
s(X) :- q(X).
"""

WRAPPER_TEXT = """
offer(S, X)  <- document(_, S), subelem(S, ?.tr, X)
model(S, X)  <- offer(_, S), subelem(S, (?.td, [(class, model, exact)]), X)
"""

# E001/E002: hangs off an undefined parent, so it can never extract.
BAD_WRAPPER_TEXT = "item(S, X) <- record(_, S), subelem(S, .td, X)"

ITALIC = MonadicProgram.parse(CLEAN_TEXT, query_predicates=["Italic"])


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def test_analyze_dispatches_all_four_program_shapes():
    session = Session()
    assert session.analyze(parse_program(CLEAN_TEXT)).kind == "datalog"
    assert session.analyze(ITALIC).kind == "datalog"
    assert session.analyze(parse_elog(WRAPPER_TEXT)).kind == "elog"
    assert session.analyze(CLEAN_TEXT).kind == "datalog"  # sniffed
    assert session.analyze(WRAPPER_TEXT).kind == "elog"  # sniffed
    with pytest.raises(TypeError):
        session.analyze(42)


def test_monadic_programs_are_checked_against_the_tree_signature():
    report = Session().analyze(ITALIC)
    assert not report.has_errors
    assert report.fragment is not None and report.fragment.tmnf


def test_unparseable_text_yields_a_syntax_report_not_an_exception():
    session = Session()
    report = session.analyze("p(X) :- q(X", kind="datalog")
    assert isinstance(report, AnalysisReport)
    assert [d.rule_id for d in report] == ["D000"]
    assert [d.rule_id for d in session.analyze("item(S, X <-", kind="elog")] == ["E000"]


# ---------------------------------------------------------------------------
# Caching: one analysis per program fingerprint
# ---------------------------------------------------------------------------


def test_datalog_reports_are_cached_per_content_fingerprint():
    session = Session()
    first = session.analyze(parse_program(CLEAN_TEXT))
    info = session.analysis_info()["datalog"]
    assert (info.hits, info.misses) == (0, 1)
    # A content-equal but distinct parse must be a pure cache hit.
    second = session.analyze(parse_program(CLEAN_TEXT))
    info = session.analysis_info()["datalog"]
    assert (info.hits, info.misses) == (1, 1)
    assert second is first


def test_datalog_cache_distinguishes_edb_and_query_context():
    session = Session()
    program = parse_program(CLEAN_TEXT)
    session.analyze(program)
    session.analyze(program, edb="tree")
    session.analyze(program, edb="tree", query_predicates=["Italic"])
    assert session.analysis_info()["datalog"].misses == 3
    session.analyze(program, edb="tree")
    assert session.analysis_info()["datalog"].hits == 1


def test_elog_reports_are_cached_per_wrapper_fingerprint():
    session = Session()
    first = session.analyze(parse_elog(WRAPPER_TEXT))
    second = session.analyze(parse_elog(WRAPPER_TEXT))
    info = session.analysis_info()["elog"]
    assert (info.hits, info.misses) == (1, 1)
    assert second is first


def test_text_input_reuses_the_session_parse_memos_and_the_report_cache():
    session = Session()
    assert session.analyze(WRAPPER_TEXT) is session.analyze(WRAPPER_TEXT)
    assert session.analyze(CLEAN_TEXT) is session.analyze(CLEAN_TEXT)


# ---------------------------------------------------------------------------
# Policy: warn (default)
# ---------------------------------------------------------------------------


def test_default_policy_warns_on_error_findings_at_query_time():
    session = Session()
    assert session.options.on_diagnostics == "warn"
    with pytest.warns(DiagnosticWarning, match="D003"):
        session.query(parse_program(ARITY_CLASH_TEXT), {"q": {(1, 2)}})


def test_clean_programs_query_silently_under_warn():
    session = Session()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DiagnosticWarning)
        session.query(parse_program("p(X) :- e(X)."), {"e": {(1,)}})


# ---------------------------------------------------------------------------
# Policy: strict
# ---------------------------------------------------------------------------


def test_strict_policy_raises_at_query_time_with_the_report_attached():
    session = Session(EngineOptions(on_diagnostics="strict"))
    with pytest.raises(AnalysisError) as excinfo:
        session.query(parse_program(ARITY_CLASH_TEXT), {"q": {(1, 2)}})
    assert excinfo.value.report.has_errors
    assert "D003" in str(excinfo.value)


def test_strict_policy_raises_when_building_a_bad_wrapper():
    session = Session(EngineOptions(on_diagnostics="strict"))
    with pytest.raises(AnalysisError, match="E001"):
        session.wrapper(BAD_WRAPPER_TEXT)


def test_strict_policy_passes_clean_programs():
    session = Session(EngineOptions(on_diagnostics="strict"))
    result = session.query(parse_program("p(X) :- e(X)."), {"e": {(1,)}})
    assert result.tuples("p") == {(1,)}
    session.wrapper(WRAPPER_TEXT)  # must not raise


# ---------------------------------------------------------------------------
# Policy: ignore
# ---------------------------------------------------------------------------


def test_ignore_policy_runs_bad_programs_silently():
    session = Session(EngineOptions(on_diagnostics="ignore"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DiagnosticWarning)
        session.query(parse_program(ARITY_CLASH_TEXT), {"q": {(1, 2)}})
        session.wrapper(BAD_WRAPPER_TEXT)


def test_options_reject_unknown_policies():
    with pytest.raises(ValueError, match="on_diagnostics"):
        EngineOptions(on_diagnostics="panic")


# ---------------------------------------------------------------------------
# Pipeline builder integration
# ---------------------------------------------------------------------------


def _bad_wrapper_builder():
    web = SimulatedWeb()
    web.publish("site.test/", "<html><body></body></html>")
    return Pipeline.builder("p").wrapper("w", BAD_WRAPPER_TEXT, web, "site.test/")


def test_pipeline_build_warns_by_default():
    builder = _bad_wrapper_builder()
    with pytest.warns(DiagnosticWarning, match="pipeline stage 'w'"):
        builder.build()


def _session_bound_bad_wrapper_builder(policy):
    web = SimulatedWeb()
    web.publish("site.test/", "<html><body></body></html>")
    session = Session(EngineOptions(on_diagnostics=policy))
    builder = Pipeline.builder("p", session)
    return builder.wrapper("w", BAD_WRAPPER_TEXT, web, "site.test/")


def test_session_bound_builder_inherits_the_session_policy():
    # wrapper() only parses; build() applies the session's policy.
    builder = _session_bound_bad_wrapper_builder("strict")
    with pytest.raises(AnalysisError, match="E00"):
        builder.build()


def test_pipeline_build_ignore_skips_analysis():
    builder = _session_bound_bad_wrapper_builder("ignore")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DiagnosticWarning)
        builder.build()


def test_session_bound_builder_warns_once_per_finding():
    findings = Session().analyze(BAD_WRAPPER_TEXT).errors()
    assert len(findings) >= 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DiagnosticWarning)
        _session_bound_bad_wrapper_builder("warn").build()
    raised = [w for w in caught if issubclass(w.category, DiagnosticWarning)]
    assert len(raised) == len(findings)

