"""Public-API snapshot: the exported surface changes only deliberately.

The façade makes ``repro`` / ``repro.api`` the documented entry points; an
accidental re-export (or a dropped one) is an API break for downstream
users.  This test pins the exact ``__all__`` of the public modules — when
surface changes are intentional, update the snapshot here *and* docs/API.md
in the same commit.
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

PUBLIC_SURFACE = {
    "repro": [
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
    ],
    "repro.api": [
        "AnalysisError",
        "AnalysisReport",
        "BackendError",
        "ChangeDetector",
        "ChangeGatedDeliverer",
        "ChangeReport",
        "Component",
        "DEFAULT_OPTIONS",
        "DEFAULT_RESILIENCE",
        "DelivererComponent",
        "Delivery",
        "Diagnostic",
        "DiagnosticWarning",
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
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_public_all_matches_the_snapshot(module_name):
    module = importlib.import_module(module_name)
    assert sorted(module.__all__) == sorted(PUBLIC_SURFACE[module_name]), (
        f"{module_name}.__all__ changed; if intentional, update this "
        "snapshot and docs/API.md together"
    )


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_every_exported_name_is_importable(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} is exported but missing"


#: The EngineOptions knobs, in declaration order: a new option is an API
#: change and must show up here as an explicit snapshot diff.
ENGINE_OPTION_FIELDS = [
    "cache_size",
    "force_generic",
    "on_diagnostics",
]


def test_engine_options_fields_match_the_snapshot():
    from repro import EngineOptions

    assert [field.name for field in dataclasses.fields(EngineOptions)] == (
        ENGINE_OPTION_FIELDS
    ), "EngineOptions changed; if intentional, update this snapshot and docs/API.md"


def test_default_backends_snapshot():
    from repro import available_backends

    assert list(available_backends()) == ["automata", "monadic", "semi-naive"]
