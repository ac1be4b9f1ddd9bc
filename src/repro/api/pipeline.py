"""Declarative, build-time-validated Transformation Server pipelines.

:class:`PipelineBuilder` declares a pipeline as a chain that validates
while you build and once more at :meth:`~PipelineBuilder.build`::

    pipeline = (
        Pipeline.builder("books")
        .wrapper("shop_a", SHOP_A, web, "books-a.test/bestsellers")
        .wrapper("shop_b", SHOP_B, web, "books-b.test/chart")
        .integrate("integrate", inputs=["shop_a", "shop_b"], root_name="allbooks")
        .filter("affordable", "book", lambda b: price(b) < 30)
        .sort("by_price", "book", "price", root_name="offers")
        .deliver(XmlDeliverer("deliver", recipient="portal"))
        .build()
    )
    results = pipeline.run()

Stages connect to the previously added stage by default (``inputs=``
overrides), so linear flows read top to bottom; fan-in stages
(``integrate``, ``join``) name their upstreams explicitly.  ``build()``
returns the :class:`~repro.server.pipeline.Pipeline` itself — the
information pipe that runs, and that registers on a
:class:`~repro.server.pipeline.TransformationServer`
(:meth:`~repro.server.pipeline.Pipeline.serve`).
:meth:`PipelineBuilder.stage` and :meth:`PipelineBuilder.connect` wire
custom components.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from ..analysis.diagnostics import apply_policy
from ..datalog.registry import shared_registry
from ..elog.ast import ElogProgram
from ..elog.extractor import Fetcher
from ..server.components import (
    Component,
    DatalogQueryComponent,
    DelivererComponent,
    FilterComponent,
    IntegrationComponent,
    JoinComponent,
    RenameComponent,
    SortComponent,
    TransformerComponent,
    WrapperComponent,
    XmlSourceComponent,
)
from ..server.monitoring import ChangeDetector, ChangeGatedDeliverer, ChangeReport
from ..server.pipeline import Pipeline, PipelineError
from ..xmlgen.document import XmlElement
from .session import Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mdatalog.program import MonadicProgram
    from ..resilience.policy import ResiliencePolicy
    from ..tree.document import Document


class PipelineBuilder:
    """Declarative construction of Transformation Server pipelines.

    Every stage method returns the builder; stages consume the previously
    added stage unless ``inputs=`` names their upstreams.  Validation is
    eager — duplicate names, references to unknown stages, and input-less
    consumers fail at definition time with :class:`PipelineError` — and
    :meth:`build` re-checks the whole DAG (topological order, source-only
    boundaries) before returning a :class:`Pipeline`.
    """

    def __init__(
        self,
        name: str = "pipeline",
        session: "Optional[Session]" = None,
        resilience: "Optional[ResiliencePolicy]" = None,
    ) -> None:
        if session is None:
            session = Session(registry=shared_registry())
        self._pipe = Pipeline(name, session)
        self._session = session
        # The policy of every wrapper/query stage: an explicit builder
        # policy wins, else the session's policy applies.
        self._resilience = resilience if resilience is not None else session.resilience
        self._previous: Optional[str] = None
        self._has_source = False

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------
    def _add_stage(
        self,
        component: Component,
        inputs: Optional[Sequence[str]],
        *,
        is_source: bool = False,
    ) -> "PipelineBuilder":
        if is_source and inputs:
            raise PipelineError(
                f"source stage {component.name!r} cannot declare inputs {list(inputs)}"
            )
        if not is_source:
            if inputs is None:
                if self._previous is None:
                    raise PipelineError(
                        f"stage {component.name!r} has no upstream: add a source "
                        "first or name inputs=[...] explicitly"
                    )
                inputs = [self._previous]
            elif not inputs:
                raise PipelineError(
                    f"stage {component.name!r} declares an empty input list"
                )
        self._pipe._add(component)
        for upstream in inputs or ():
            self._pipe._connect(upstream, component.name)
        self._has_source = self._has_source or is_source
        self._previous = component.name
        return self

    # ------------------------------------------------------------------
    # Stage 1: acquisition (sources)
    # ------------------------------------------------------------------
    def source(
        self,
        name: str,
        supplier: Callable[[], XmlElement],
    ) -> "PipelineBuilder":
        """A boundary component fed by a callable returning XML."""
        return self._add_stage(XmlSourceComponent(name, supplier), None, is_source=True)

    def wrapper(
        self,
        name: str,
        program: "ElogProgram | str",
        fetcher: Fetcher,
        url: str,
        root_name: Optional[str] = None,
    ) -> "PipelineBuilder":
        """An Elog wrapper source (program text is parsed through the
        session's memo; :meth:`build` applies the diagnostics policy)."""
        if isinstance(program, str):
            program = self._session._parsed_wrapper(program)
        component = WrapperComponent(
            name,
            program,
            fetcher,
            url,
            root_name=root_name,
            resilience=self._resilience,
        )
        self._pipe._programs.append((name, program))
        return self._add_stage(component, None, is_source=True)

    def query(
        self,
        name: str,
        program: "MonadicProgram",
        supplier: "Callable[[], Document]",
        root_name: Optional[str] = None,
    ) -> "PipelineBuilder":
        """A monadic-datalog wrapper source over a document supplier (under
        a resilience policy the supplier call is retried; failures can
        serve stale)."""
        component = DatalogQueryComponent(
            name,
            program,
            supplier,
            root_name=root_name,
            resilience=self._resilience,
            options=self._session.options,
            registry=self._session.registry,
        )
        self._pipe._programs.append((name, program))
        return self._add_stage(component, None, is_source=True)

    # ------------------------------------------------------------------
    # Stage 2: integration
    # ------------------------------------------------------------------
    def integrate(
        self,
        name: str,
        inputs: Sequence[str],
        root_name: Optional[str] = None,
    ) -> "PipelineBuilder":
        """Merge several upstream documents (fan-in is explicit)."""
        return self._add_stage(IntegrationComponent(name, root_name=root_name), inputs)

    def join(
        self,
        name: str,
        primary: str,
        other: str,
        record_name: str,
        other_record_name: str,
        key: str,
        other_key: Optional[str] = None,
        root_name: Optional[str] = None,
    ) -> "PipelineBuilder":
        """Join records of ``primary`` with records of ``other`` on a key.

        Input order is part of the join's semantics (the primary side
        passes through un-joined records); the builder pins it by
        construction instead of trusting call order of ``connect``.
        """
        component = JoinComponent(
            name,
            record_name=record_name,
            other_record_name=other_record_name,
            key=key,
            other_key=other_key,
            root_name=root_name,
        )
        return self._add_stage(component, [primary, other])

    # ------------------------------------------------------------------
    # Stage 3: transformation
    # ------------------------------------------------------------------
    def filter(
        self,
        name: str,
        record_name: str,
        predicate: Callable[[XmlElement], bool],
        inputs: Optional[Sequence[str]] = None,
        root_name: Optional[str] = None,
    ) -> "PipelineBuilder":
        component = FilterComponent(name, record_name, predicate, root_name=root_name)
        return self._add_stage(component, inputs)

    def sort(
        self,
        name: str,
        record_name: str,
        key: str,
        reverse: bool = False,
        numeric: bool = True,
        inputs: Optional[Sequence[str]] = None,
        root_name: Optional[str] = None,
    ) -> "PipelineBuilder":
        component = SortComponent(
            name, record_name, key, reverse=reverse, numeric=numeric, root_name=root_name
        )
        return self._add_stage(component, inputs)

    def rename(
        self,
        name: str,
        mapping: Mapping[str, str],
        inputs: Optional[Sequence[str]] = None,
        root_name: Optional[str] = None,
    ) -> "PipelineBuilder":
        component = RenameComponent(name, dict(mapping), root_name=root_name)
        return self._add_stage(component, inputs)

    def transform(
        self,
        name: str,
        function: Callable[[XmlElement], XmlElement],
        inputs: Optional[Sequence[str]] = None,
    ) -> "PipelineBuilder":
        return self._add_stage(TransformerComponent(name, function), inputs)

    # ------------------------------------------------------------------
    # Stage 4: delivery
    # ------------------------------------------------------------------
    def deliver(
        self,
        deliverer: DelivererComponent,
        inputs: Optional[Sequence[str]] = None,
        *,
        name: Optional[str] = None,
        on_change: Optional[ChangeDetector] = None,
        message: Optional[Callable[[ChangeReport], str]] = None,
        deliver_initial: bool = False,
    ) -> "PipelineBuilder":
        """Attach a deliverer (the configured channel object).

        With ``on_change`` the deliverer is wrapped in a
        :class:`ChangeGatedDeliverer` (named ``name``, defaulting to
        ``"<deliverer>_gate"``) that fires only when the watched records
        changed between activations — the Section 6.2 monitoring pattern.
        """
        stage: Component = deliverer
        if on_change is not None:
            stage = ChangeGatedDeliverer(
                name or f"{deliverer.name}_gate",
                deliverer,
                on_change,
                deliver_initial=deliver_initial,
                message=message,
            )
        else:
            # The gate-only kwargs must not be dropped silently: a message
            # formatter or deliver_initial without a detector means the
            # caller forgot on_change=.
            if message is not None or deliver_initial:
                raise PipelineError(
                    f"deliver({deliverer.name!r}): message=/deliver_initial= "
                    "only apply to change-gated delivery; pass "
                    "on_change=ChangeDetector(...) as well"
                )
            if name is not None and name != deliverer.name:
                raise PipelineError(
                    f"deliverer is named {deliverer.name!r}; an ungated deliver() "
                    f"stage cannot rename it to {name!r}"
                )
        return self._add_stage(stage, inputs)

    # ------------------------------------------------------------------
    # Escape hatch + build
    # ------------------------------------------------------------------
    def stage(
        self,
        component: Component,
        inputs: Optional[Sequence[str]] = None,
        *,
        is_source: bool = False,
    ) -> "PipelineBuilder":
        """Add a custom :class:`Component` (the extension point for stages
        the builder has no verb for)."""
        return self._add_stage(component, inputs, is_source=is_source)

    def connect(self, source: str, target: str) -> "PipelineBuilder":
        """An extra edge between already-declared stages (fan-out)."""
        self._pipe._connect(source, target)
        return self

    def build(self) -> Pipeline:
        """Validate the whole network and return the built :class:`Pipeline`.

        Besides the structural checks (stages exist, sources exist, the
        DAG is acyclic), every wrapper/query program added to the builder
        runs through :mod:`repro.analysis` under the session's
        ``options.on_diagnostics`` — ``"warn"`` (default) emits a
        ``DiagnosticWarning`` per error-severity finding, ``"strict"``
        raises :class:`~repro.analysis.diagnostics.AnalysisError`,
        ``"ignore"`` skips analysis.  The reports come from the session's
        caches.
        """
        pipe = self._pipe
        if not pipe.components():
            raise PipelineError(f"pipeline {pipe.name!r} has no stages")
        if not self._has_source:
            raise PipelineError(
                f"pipeline {pipe.name!r} has no source stage "
                "(wrapper/query/source)"
            )
        policy = self._session.options.on_diagnostics
        if policy != "ignore":
            for stage_name, program in pipe._programs:
                apply_policy(
                    self._session.analyze(program),
                    policy,
                    f"pipeline stage {stage_name!r}",
                )
        # Raises on cycles; unreachable stages are impossible by
        # construction (every non-source stage was connected when added).
        pipe._topological_order()
        return pipe
