"""Golden-tested explain() snapshots plus the Session/Pipeline surfaces.

Every ``examples/*.py`` file gets one golden snapshot under
``goldens/explain/``: the rendered explain plan of each embedded program
(or its "not explainable" verdict for Elog wrappers outside the
translatable core fragment).  Regenerate after an intentional change
with::

    REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/analysis/test_explain.py

and review the diff — the snapshots are the contract that adornments,
join orders, index advice and cardinality estimates stay deterministic.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import Pipeline, Session
from repro.analysis.explain import ExplainReport, explain
from repro.analysis.scan import scan_file
from repro.elog.to_mdatalog import ElogTranslationError
from repro.html import parse_html
from repro.mdatalog import MonadicProgram

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
GOLDENS = Path(__file__).resolve().parent / "goldens" / "explain"
EXAMPLE_FILES = sorted(EXAMPLES.glob("*.py"))

TC_TEXT = """
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
"""


def _explain_text(path: Path) -> str:
    """The snapshot text for one example file (stable, path-independent)."""
    sections = []
    for scanned in scan_file(str(path)):
        label = f"{path.name}:{scanned.name}"
        try:
            report = explain(scanned.text)
        except ElogTranslationError as error:
            sections.append(f"explain {label}\nnot explainable: {error}\n")
        else:
            sections.append(report.render(label) + "\n")
    if not sections:
        return "(no embedded programs)\n"
    return "\n".join(sections)


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_explain_matches_the_golden_snapshot(path):
    actual = _explain_text(path)
    golden = GOLDENS / (path.stem + ".txt")
    if os.environ.get("REGEN_GOLDENS"):
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(actual, encoding="utf-8")
    expected = golden.read_text(encoding="utf-8")
    assert actual == expected, (
        f"explain snapshot drifted for {path.name}; if intentional, "
        "regenerate with REGEN_GOLDENS=1 and review the diff"
    )


def test_every_golden_belongs_to_a_current_example():
    stems = {path.stem for path in EXAMPLE_FILES}
    stale = [p.name for p in GOLDENS.glob("*.txt") if p.stem not in stems]
    assert not stale, f"golden snapshots without an example file: {stale}"


# ---------------------------------------------------------------------------
# Determinism and the structured views
# ---------------------------------------------------------------------------


def test_explain_renders_deterministically():
    first = explain(TC_TEXT)
    second = explain(TC_TEXT)
    assert first.render("tc") == second.render("tc")
    assert first.to_json("tc") == second.to_json("tc")


def test_explain_json_is_machine_readable():
    payload = json.loads(explain(TC_TEXT).to_json("tc"))
    assert payload["name"] == "tc"
    assert payload["strata"] == 1
    assert payload["index_advice"] == {"e": [[1]], "tc": [[0]]}
    assert {rule["head_predicate"] for rule in payload["rules"]} == {"tc"}


def test_explain_renders_plans_without_generating_executor_code(monkeypatch):
    import repro.datalog.plan

    expected = explain(TC_TEXT).render("tc")

    def refuse(*args):
        raise AssertionError("explain generated an executor")

    monkeypatch.setattr(repro.datalog.plan, "_executor_source", refuse)
    assert explain(TC_TEXT).render("tc") == expected


# ---------------------------------------------------------------------------
# Session / Pipeline surfaces
# ---------------------------------------------------------------------------


def test_session_explain_caches_by_program_content():
    session = Session()
    first = session.explain(TC_TEXT)
    second = session.explain(TC_TEXT)
    assert isinstance(first, ExplainReport)
    assert first is second  # served from the session's analysis cache


def test_session_explain_accepts_monadic_programs():
    program = MonadicProgram.parse(
        """
        italic(X) :- label_i(X).
        italic(X) :- italic(X0), firstchild(X0, X).
        """,
        query_predicates=["italic"],
    )
    report = Session().explain(program)
    estimated = dict(report.estimates)
    assert "label_i" in estimated
    assert any(rule.head_predicate == "italic" for rule in report.rules)


def test_pipeline_explain_reports_per_stage():
    program = MonadicProgram.parse(
        "italic(X) :- label_i(X).", query_predicates=["italic"]
    )
    supplier = lambda: parse_html("<html><i>x</i></html>", url="doc.test")
    pipeline = (
        Pipeline.builder("docs")
        .query("stage", program, supplier)
        .build()
    )
    reports = pipeline.explain()
    assert list(reports) == ["stage"]
    assert isinstance(reports["stage"], ExplainReport)


def test_pipeline_explain_uses_the_bound_sessions_cache():
    session = Session()
    program = MonadicProgram.parse(
        "italic(X) :- label_i(X).", query_predicates=["italic"]
    )
    supplier = lambda: parse_html("<html><i>x</i></html>", url="doc.test")
    pipeline = (
        Pipeline.builder("docs", session=session)
        .query("stage", program, supplier)
        .build()
    )
    assert pipeline.explain()["stage"] is session.explain(program)
