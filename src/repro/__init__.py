"""repro — a reproduction of the Lixto data extraction project (PODS 2004).

The package is organised in layers:

* substrates: :mod:`repro.tree`, :mod:`repro.html`, :mod:`repro.xmlgen`,
  :mod:`repro.datalog`, :mod:`repro.web`;
* theory core: :mod:`repro.mdatalog` (monadic datalog over trees, TMNF),
  :mod:`repro.automata`, :mod:`repro.xpath`, :mod:`repro.cq`;
* the Lixto system: :mod:`repro.elog` (the Elog language and Extractor),
  :mod:`repro.visual` (visual wrapper specification),
  :mod:`repro.server` (the Transformation Server);
* the façade: :mod:`repro.api` — the single public front door.
  :class:`Session` owns engines, caches and the plan registry and routes
  programs through named backends (``"semi-naive" | "monadic" |
  "automata"``); :class:`Pipeline` builds Transformation Server pipelines
  declaratively; :class:`QueryResult` / :class:`ExtractionResult` are the
  uniform result views; :class:`EngineOptions` is the one tuning object
  every evaluator accepts.

The façade's main entry points are re-exported here, so::

    from repro import Session, Pipeline, EngineOptions

is all most programs need.  The layer modules stay importable for theory
work and tests; their pre-façade tuning kwargs are removed, and the built
:class:`Pipeline` is the Transformation Server's information pipe itself
(see docs/API.md for migration notes).
"""

from .api import (
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    EngineOptions,
    ErrorResult,
    ExtractionResult,
    FetchError,
    Pipeline,
    PipelineBuilder,
    QueryResult,
    ResiliencePolicy,
    RetryPolicy,
    Session,
    analyze,
    available_backends,
    register_backend,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Diagnostic",
    "EngineOptions",
    "ErrorResult",
    "ExtractionResult",
    "FetchError",
    "Pipeline",
    "PipelineBuilder",
    "QueryResult",
    "ResiliencePolicy",
    "RetryPolicy",
    "Session",
    "__version__",
    "analyze",
    "available_backends",
    "register_backend",
]
