"""Compile-time static analysis for datalog programs and Elog wrappers.

The analyzer turns the silent failure modes of logic programs — unsafe
rules, unstratifiable negation, misspelled predicates, dead patterns —
into structured :class:`Diagnostic` records with stable rule ids, a
severity, a human explanation and (for parsed text) a source span.  It
also classifies every datalog program into the paper's complexity
fragments (monadic? TMNF? linear-time?) and explains the verdict.

Three front doors:

* :func:`analyze` — one call for any program shape (AST or text);
* ``Session.analyze`` / ``EngineOptions(on_diagnostics=...)`` — the
  :mod:`repro.api` integration, cached per program fingerprint;
* ``python -m repro.analysis <file>`` — the CLI, with ``--json``,
  ``--perf`` (adornment/cost P-series checks) and ``--explain`` (plans).

Beyond diagnostics, the package carries the optimizer-grade layer:
:func:`adorn` (binding-pattern dataflow, :mod:`repro.analysis.dataflow`),
:func:`relation_estimates` / :func:`check_performance`
(:mod:`repro.analysis.cost`) and :func:`explain`
(:mod:`repro.analysis.explain`), which runs the engine's own greedy join
planner over estimated sizes.  None of it feeds back into evaluation.

docs/ANALYSIS.md is the rule catalog with one example per rule id.
"""

from .analyzer import DATALOG, ELOG, Analyzable, analyze, sniff_kind
from .cost import (
    DEFAULT_DOMAIN_SIZE,
    RuleCost,
    check_performance,
    relation_estimates,
    rule_costs,
)
from .dataflow import AdornedLiteral, AdornedProgram, AdornedRule, adorn
from .explain import ExplainPlan, ExplainReport, ExplainRule, ExplainStep, explain
from .datalog_checks import (
    BUILTIN_PREDICATES,
    TREE_EDB_PREDICATES,
    TREE_SIGNATURE,
    check_program,
)
from .diagnostics import (
    ERROR,
    INFO,
    POLICIES,
    RULE_CATALOG,
    SEVERITIES,
    WARNING,
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    DiagnosticWarning,
    apply_policy,
)
from .elog_checks import check_elog_program
from .fragments import FragmentReport, classify
from .scan import ScannedProgram, analyze_scanned, looks_like_program, scan_file, scan_source

__all__ = [
    "AdornedLiteral",
    "AdornedProgram",
    "AdornedRule",
    "Analyzable",
    "AnalysisError",
    "AnalysisReport",
    "BUILTIN_PREDICATES",
    "DATALOG",
    "DEFAULT_DOMAIN_SIZE",
    "Diagnostic",
    "DiagnosticWarning",
    "ELOG",
    "ERROR",
    "ExplainPlan",
    "ExplainReport",
    "ExplainRule",
    "ExplainStep",
    "FragmentReport",
    "INFO",
    "POLICIES",
    "RULE_CATALOG",
    "RuleCost",
    "SEVERITIES",
    "ScannedProgram",
    "TREE_EDB_PREDICATES",
    "TREE_SIGNATURE",
    "WARNING",
    "adorn",
    "analyze",
    "analyze_scanned",
    "apply_policy",
    "check_elog_program",
    "check_performance",
    "check_program",
    "classify",
    "explain",
    "looks_like_program",
    "relation_estimates",
    "rule_costs",
    "scan_file",
    "scan_source",
    "sniff_kind",
]
