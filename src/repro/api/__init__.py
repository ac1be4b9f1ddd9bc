"""repro.api — the single public front door of the reproduction.

The paper presents Lixto as one coherent system: Elog wrappers over HTML
(Section 3), monadic datalog as the theoretical core (Section 2), and the
Transformation Server streaming wrapped data to users (Section 5).  This
package gives the reproduction the matching single surface:

* :class:`~repro.datalog.options.EngineOptions` — one frozen dataclass of
  evaluator tuning, accepted uniformly by every engine (the pre-façade
  per-constructor kwargs survive as deprecation shims);
* :class:`~repro.api.session.Session` — the stateful entry point that owns
  the compiled-plan registry, evaluator memos and Elog parse memo, routes
  programs through the backend registry (``"semi-naive" | "monadic" |
  "automata"``, extensible via :func:`register_backend`), and exposes the
  batch entry points ``query_many`` / ``extract_many`` for server-style
  document streams;
* :class:`~repro.api.results.QueryResult` /
  :class:`~repro.api.results.ExtractionResult` — uniform lazily-memoised
  views (tuples / nodes / texts) over datalog facts, monadic node
  selections and Elog pattern-instance bases;
* :class:`~repro.api.pipeline.Pipeline` and its
  :meth:`~repro.api.pipeline.Pipeline.builder` — declarative, build-time
  validated construction of Transformation Server pipelines, replacing
  imperative ``InformationPipe`` wiring;
* :mod:`repro.analysis` — compile-time diagnostics: ``Session.analyze``
  returns a cached :class:`~repro.analysis.diagnostics.AnalysisReport`,
  ``EngineOptions(on_diagnostics="warn" | "strict" | "ignore")`` decides
  what evaluation does about error-severity findings, and
  ``Pipeline.builder().build(on_diagnostics=...)`` vets every
  wrapper/query program in a pipeline.

The deliverer/monitoring component classes and the
:class:`TransformationServer` are re-exported so a pipeline definition
needs no imports below the façade.  See docs/API.md for the full tour and
the migration notes from the pre-façade constructors.
"""

from ..analysis import (
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    DiagnosticWarning,
    analyze,
)
from ..datalog.options import DEFAULT_OPTIONS, EngineOptions
from ..datalog.registry import PlanRegistry
from ..elog.parser import parse_elog
from ..server.components import (
    Component,
    DelivererComponent,
    Delivery,
    EmailDeliverer,
    HtmlPortalDeliverer,
    SmsDeliverer,
    XmlDeliverer,
)
from ..resilience import (
    DEFAULT_RESILIENCE,
    ErrorResult,
    FaultPlan,
    FaultyFetcher,
    FetchError,
    ResilienceInfo,
    ResiliencePolicy,
    RetryPolicy,
)
from ..server.monitoring import (
    ChangeDetector,
    ChangeGatedDeliverer,
    ChangeReport,
    resilience_report,
)
from ..server.pipeline import PipelineError, TransformationServer
from .backends import (
    BackendError,
    EvaluatorBackend,
    available_backends,
    backend_named,
    infer_backend,
    register_backend,
)
from .pipeline import Pipeline, PipelineBuilder
from .results import ExtractionResult, QueryResult
from .session import Session

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "BackendError",
    "ChangeDetector",
    "ChangeGatedDeliverer",
    "ChangeReport",
    "Component",
    "DEFAULT_OPTIONS",
    "DEFAULT_RESILIENCE",
    "Diagnostic",
    "DiagnosticWarning",
    "DelivererComponent",
    "Delivery",
    "EmailDeliverer",
    "EngineOptions",
    "ErrorResult",
    "EvaluatorBackend",
    "ExtractionResult",
    "FaultPlan",
    "FaultyFetcher",
    "FetchError",
    "HtmlPortalDeliverer",
    "Pipeline",
    "PipelineBuilder",
    "PipelineError",
    "PlanRegistry",
    "QueryResult",
    "ResilienceInfo",
    "ResiliencePolicy",
    "RetryPolicy",
    "Session",
    "SmsDeliverer",
    "TransformationServer",
    "XmlDeliverer",
    "analyze",
    "available_backends",
    "backend_named",
    "infer_backend",
    "parse_elog",
    "register_backend",
    "resilience_report",
]
