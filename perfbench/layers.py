"""The layer boundaries the traced run wraps, and the counters it reads.

Spans are named ``<layer>.<boundary>``.  Every workload installs the same
patches; a layer that a workload's path never enters simply records no
calls there.  Counters come only from public info surfaces
(``plan_registry_info()``, ``analysis_info()``, ``engine_info()``,
``resilience_info()`` / ``resilience_report()``, ``fixpoint_cache_info()``,
component ``cache_info()``), never from private state.
"""

from __future__ import annotations

from typing import Dict, List

from perfbench.tracing import Patch, Tracer

import repro.api.backends
import repro.mdatalog.evaluator
import repro.server.components
import repro.server.monitoring
import repro.web.fetcher
from repro.api import Session
from repro.datalog.engine import SemiNaiveEngine
from repro.datalog.ltur import GroundHornSolver
from repro.elog.epath import ElementPath
from repro.elog.extractor import Extractor
from repro.elog.instance_base import PatternInstanceBase
from repro.mdatalog.evaluator import MonadicTreeEvaluator
from repro.server.components import (
    DatalogQueryComponent,
    DelivererComponent,
    FilterComponent,
    IntegrationComponent,
    WrapperComponent,
)
from repro.server.monitoring import ChangeDetector, ChangeGatedDeliverer
from repro.server.pipeline import TransformationServer
from repro.web import SimulatedWeb

#: Span names in report order.  The first three are request roots: their
#: self time is the facade's or the scheduler's own overhead.
SPANS = (
    "api.query",
    "api.extract_many",
    "server.tick",
    "elog.extract",
    "elog.find_targets",
    "web.fetch",
    "html.parse",
    "xmlgen.serialize",
    "datalog.tree_edb",
    "datalog.fixpoint",
    "mdatalog.evaluate",
    "ltur.solve",
    "server.wrapper",
    "server.integrate",
    "server.filter",
    "server.query",
    "server.gate",
    "server.deliver",
    "monitoring.observe",
)

#: Counters reported per request (deltas over the traced window).
COUNTERS = (
    "datalog.storage.rows_interned",
    "datalog.storage.delta_batches",
    "datalog.storage.delta_rows",
    "datalog.storage.posting_intersections",
    "datalog.registry.hits",
    "datalog.registry.misses",
    "analysis.reports.hits",
    "analysis.reports.misses",
    "resilience.retries",
    "resilience.stale_served",
    "resilience.breaker_trips",
    "web.fetch.failed",
    "monitoring.alerts",
)

#: Hit rates computed as delta hits / delta lookups over the traced window.
HIT_RATES = ("datalog.fixpoint_cache", "mdatalog.ground_cache")


def _count_scanned(tracer: Tracer, args: tuple, result) -> None:
    """``ElementPath.find_targets(path, parent)``: targets vs nodes scanned.

    The subtree size comes from the preorder/postorder numbering
    (``size = post - pre + depth + 1``), so counting costs O(depth) instead
    of a second walk over the subtree.
    """
    parent = args[1]
    scanned = parent.postorder_index - parent.preorder_index + parent.depth()
    tracer.add("elog.find_targets.scanned", scanned)
    tracer.add("elog.find_targets.returned", len(result))


def boundary_patches() -> List[Patch]:
    """Every boundary the traced run wraps (see the README's table)."""
    return [
        Patch(Session, "query", "api.query"),
        Patch(Session, "extract_many", "api.extract_many"),
        Patch(TransformationServer, "tick", "server.tick"),
        Patch(Extractor, "extract", "elog.extract"),
        Patch(ElementPath, "find_targets", "elog.find_targets", _count_scanned),
        Patch(SimulatedWeb, "fetch_html", "web.fetch"),
        Patch(repro.web.fetcher, "parse_html", "html.parse"),
        Patch(PatternInstanceBase, "to_xml", "xmlgen.serialize"),
        Patch(repro.server.components, "to_xml", "xmlgen.serialize"),
        Patch(repro.server.monitoring, "to_compact_xml", "xmlgen.serialize"),
        Patch(repro.api.backends, "tree_database", "datalog.tree_edb"),
        Patch(repro.mdatalog.evaluator, "tree_database", "datalog.tree_edb"),
        Patch(SemiNaiveEngine, "fixpoint", "datalog.fixpoint"),
        Patch(MonadicTreeEvaluator, "evaluate", "mdatalog.evaluate"),
        Patch(GroundHornSolver, "solve", "ltur.solve"),
        Patch(WrapperComponent, "process", "server.wrapper"),
        Patch(IntegrationComponent, "process", "server.integrate"),
        Patch(FilterComponent, "process", "server.filter"),
        Patch(DatalogQueryComponent, "process", "server.query"),
        Patch(ChangeGatedDeliverer, "process", "server.gate"),
        Patch(DelivererComponent, "process", "server.deliver"),
        Patch(ChangeDetector, "observe", "monitoring.observe"),
    ]


def session_counters(session: Session) -> Dict[str, float]:
    """The session-wide counters every workload reports."""
    registry = session.plan_registry_info()
    analyses = session.analysis_info().values()
    engine = session.engine_info()
    resilience = session.resilience_info()
    return {
        "datalog.storage.rows_interned": engine.rows_interned,
        "datalog.storage.delta_batches": engine.delta_batches,
        "datalog.storage.delta_rows": engine.delta_rows,
        "datalog.storage.posting_intersections": engine.posting_intersections,
        "datalog.registry.hits": registry.hits,
        "datalog.registry.misses": registry.misses,
        "analysis.reports.hits": sum(info.hits for info in analyses),
        "analysis.reports.misses": sum(info.misses for info in analyses),
        "resilience.retries": resilience.retries,
        "resilience.stale_served": resilience.stale_served,
        "resilience.breaker_trips": resilience.breaker_trips,
    }


def add_cache(counts: Dict[str, float], prefix: str, info) -> None:
    """Accumulate one ``CacheInfo`` into ``<prefix>.hits`` / ``.misses``."""
    counts[f"{prefix}.hits"] = counts.get(f"{prefix}.hits", 0) + info.hits
    counts[f"{prefix}.misses"] = counts.get(f"{prefix}.misses", 0) + info.misses
