"""Information pipes: wiring components into push-based pipelines.

Section 5: "The 'pipe flow' can model very complex unidirectional information
flows [...]  Components which are not on the boundaries of the network are
only activated by their neighboring components.  Boundary components (i.e.,
wrapper and deliverer components) have the ability to activate themselves
according to a user specified strategy and trigger the information processing
on behalf of the user."

:class:`Pipeline` is an information pipe: a DAG of named components;
running it activates the source components and pushes the resulting XML
documents through the network in topological order.  Pipelines are declared
and validated with :meth:`Pipeline.builder` (see :mod:`repro.api.pipeline`).
:class:`TransformationServer` hosts several pipelines and simulates periodic
activation (the scheduler advances a logical clock instead of sleeping).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from ..resilience.batch import check_on_error, run_tasks, settle
from ..resilience.policy import ErrorResult
from ..xmlgen.document import XmlElement
from .components import (
    Component,
    DelivererComponent,
    FilterComponent,
    IntegrationComponent,
    JoinComponent,
    RenameComponent,
    SortComponent,
    WrapperComponent,
    fresh_revision,
)
from .monitoring import ChangeGatedDeliverer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.pipeline import PipelineBuilder
    from ..api.session import Session
    from ..resilience.policy import ResilienceInfo, ResiliencePolicy

#: The stages whose output depends on nothing but their inputs (filter
#: predicates and sort keys count as functions of their record), matched
#: by exact type: a subclass may depend on more.  A change gate fed an
#: unchanged input would observe no change and keep its baseline, so
#: skipping it is exact too.
_CUT_OFF = frozenset(
    {
        IntegrationComponent,
        JoinComponent,
        FilterComponent,
        SortComponent,
        RenameComponent,
        ChangeGatedDeliverer,
    }
)


class _Memo(NamedTuple):
    """A cut-off stage's last completed run."""

    consumed: Tuple[int, ...]  # the input revisions it read, in input order
    output: XmlElement
    revision: int


class PipelineError(ValueError):
    """Raised on malformed pipe definitions (cycles, unknown components)."""


class Pipeline:
    """An information pipe: a DAG of components with XML hand-over along
    the edges, as :meth:`builder` declared and validated it."""

    def __init__(self, name: str, session: "Optional[Session]" = None) -> None:
        self.name = name
        # The builder's session and the (stage name, program) pairs of the
        # wrapper/query stages, kept for explain().
        self._session = session
        self._programs: List[tuple] = []
        self._components: Dict[str, Component] = {}
        self._edges: Dict[str, List[str]] = defaultdict(list)   # component -> successors
        self._inputs: Dict[str, List[str]] = defaultdict(list)  # component -> predecessors
        self._order: Optional[List[str]] = None  # cached topological order
        self._shared: FrozenSet[str] = frozenset()  # see _topological_order
        self._memo: Dict[str, _Memo] = {}  # cut-off stage -> its last completed run
        self.last_results: Dict[str, XmlElement] = {}

    @staticmethod
    def builder(
        name: str = "pipeline",
        session: "Optional[Session]" = None,
        resilience: "Optional[ResiliencePolicy]" = None,
    ) -> "PipelineBuilder":
        """Start a declarative pipeline definition.

        ``resilience`` becomes the policy of every wrapper/query stage; a
        session-bound builder defaults to the session's policy.  Without a
        ``session`` the builder binds ``Session(registry=shared_registry())``:
        stock options, the process-wide plan registry, no policy.
        """
        from ..api.pipeline import PipelineBuilder

        return PipelineBuilder(name, session=session, resilience=resilience)

    # -- construction ------------------------------------------------------
    #
    # The builder assembles a pipe through these underscore internals.

    def _add(self, component: Component) -> Component:
        if component.name in self._components:
            raise PipelineError(f"duplicate component name {component.name!r}")
        self._components[component.name] = component
        self._order = None
        return component

    def _connect(self, source: str, target: str) -> None:
        for name in (source, target):
            if name not in self._components:
                raise PipelineError(f"unknown component {name!r}")
        self._edges[source].append(target)
        self._inputs[target].append(source)
        self._order = None

    # -- inspection --------------------------------------------------------
    def component(self, name: str) -> Component:
        return self._components[name]

    def components(self) -> List[Component]:
        return list(self._components.values())

    def deliverers(self) -> List[DelivererComponent]:
        """Every configured deliverer, including those behind change gates
        (a :class:`ChangeGatedDeliverer` stage *is* the gate; the deliverer
        it forwards to is what monitoring code wants to iterate)."""
        found: List[DelivererComponent] = []
        for component in self._components.values():
            if isinstance(component, DelivererComponent):
                found.append(component)
            elif isinstance(component, ChangeGatedDeliverer):
                found.append(component.inner)
        return found

    def resilience_report(self) -> "Dict[str, ResilienceInfo]":
        """Per-component failure accounting (components without a
        resilience policy are omitted)."""
        report: "Dict[str, ResilienceInfo]" = {}
        for name, component in self._components.items():
            info_of = getattr(component, "resilience_info", None)
            info = info_of() if info_of is not None else None
            if info is not None:
                report[name] = info
        return report

    def explain(self) -> "Dict[str, object]":
        """Explain plans for every wrapper/query stage of this pipeline.

        Returns ``{stage name: ExplainReport}`` in stage-definition order
        (see :func:`repro.analysis.explain.explain`), answered from the
        builder's session's analysis cache.  Elog wrappers are explained
        through their monadic-datalog translation, so the report shows the
        plans the engine would actually run.
        """
        return {
            stage_name: self._session.explain(program)
            for stage_name, program in self._programs
        }

    def serve(
        self,
        server: "Optional[TransformationServer]" = None,
        period: int = 1,
    ) -> "TransformationServer":
        """Register on a :class:`TransformationServer` (created on demand)
        with the given activation period; returns the server so callers can
        drive its logical clock (``server.tick()``)."""
        if server is None:
            server = TransformationServer()
        server.register(self, period=period)
        return server

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pipeline({self.name!r}, components={len(self._components)})"

    # -- execution -----------------------------------------------------------
    def _topological_order(self) -> List[str]:
        # The order is cached between runs (periodic server activation re-runs
        # an unchanged DAG every tick) and invalidated by _add/_connect.
        if self._order is not None:
            return self._order
        indegree = {name: len(self._inputs.get(name, [])) for name in self._components}
        frontier = [name for name, degree in indegree.items() if degree == 0]
        order: List[str] = []
        while frontier:
            name = frontier.pop()
            order.append(name)
            for successor in self._edges.get(name, []):
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    frontier.append(successor)
        if len(order) != len(self._components):
            raise PipelineError(f"pipe {self.name!r} contains a cycle")
        # Shared outputs (see run): wrappers', cut-off stages' and their inputs'.
        kinds = {name: type(component) for name, component in self._components.items()}
        self._shared = frozenset(
            name for name, kind in kinds.items()
            if kind is WrapperComponent or kind in _CUT_OFF
            or any(kinds[target] in _CUT_OFF for target in self._edges.get(name, ()))
        )
        self._order = order
        return order

    def run(self) -> Dict[str, XmlElement]:
        """Activate the sources and push documents through the network.

        Returns the output document of every component (keyed by name).

        Every output carries a revision: a traced wrapper keeps its own
        while its pages are unchanged, every other stage that runs draws a
        fresh one.  A cut-off stage (``_CUT_OFF``) whose input revisions
        equal those of its last completed run does not run; its previous
        output stands, as the same object.  Nothing is copied on the way
        (wrappers hand over their stored output, cut-off stages link their
        inputs), so every shared output is frozen
        (:meth:`~repro.xmlgen.document.XmlElement.freeze`) before it is
        handed over; every other stage may mutate its inputs, so it gets a
        copy of each input whose producer is shared.
        """
        results: Dict[str, XmlElement] = {}
        revisions: Dict[str, int] = {}
        memos = self._memo
        for name in self._topological_order():
            component = self._components[name]
            predecessors = self._inputs.get(name, ())
            kind = type(component)
            if kind in _CUT_OFF:
                consumed = tuple(revisions[predecessor] for predecessor in predecessors)
                memo = memos.get(name)
                if memo is None or memo.consumed != consumed:
                    output = component.process(
                        [results[predecessor] for predecessor in predecessors]
                    )
                    memo = memos[name] = _Memo(consumed, output.freeze(), fresh_revision())
                results[name] = memo.output
                revisions[name] = memo.revision
                continue
            inputs = [
                results[predecessor].copy() if predecessor in self._shared else results[predecessor]
                for predecessor in predecessors
            ]
            if kind is WrapperComponent:
                output = component._activate(inputs)
                revisions[name] = component.revision
            else:
                output = component.process(inputs)
                revisions[name] = fresh_revision()
            results[name] = output.freeze() if name in self._shared else output
        self.last_results = results
        return results


@dataclass
class ScheduledPipe:
    """A pipeline plus its activation strategy (every ``period`` ticks)."""

    pipeline: Pipeline
    period: int = 1
    next_activation: int = 0


#: How many activations :attr:`TransformationServer.run_log` keeps: a
#: long-running server must not grow it without bound.
RUN_LOG_SIZE = 1024


class TransformationServer:
    """A container hosting several pipelines (information pipes).

    The server advances a logical clock; on every :meth:`tick`, pipes whose
    activation period has elapsed are run.  This models the periodic refresh
    strategies of Section 6.1 ("upgraded at periodic intervals ranging from a
    few seconds up to hours or days") without real-time waiting.
    ``run_log`` holds the last :data:`RUN_LOG_SIZE` ``(clock, pipe name)``
    activations.
    """

    def __init__(self) -> None:
        self._pipes: Dict[str, ScheduledPipe] = {}
        self.clock: int = 0
        self.run_log: Deque[Tuple[int, str]] = deque(maxlen=RUN_LOG_SIZE)

    # -- registration ------------------------------------------------------
    def register(self, pipeline: Pipeline, period: int = 1) -> Pipeline:
        if pipeline.name in self._pipes:
            raise PipelineError(f"duplicate pipe name {pipeline.name!r}")
        self._pipes[pipeline.name] = ScheduledPipe(pipeline, period=max(1, period))
        return pipeline

    def pipes(self) -> List[str]:
        return sorted(self._pipes)

    # -- execution -----------------------------------------------------------
    def tick(self, steps: int = 1) -> List[str]:
        """Advance the clock; returns the names of the pipes that ran."""
        ran: List[str] = []
        for _ in range(steps):
            for name, scheduled in self._pipes.items():
                if self.clock >= scheduled.next_activation:
                    scheduled.pipeline.run()
                    scheduled.next_activation = self.clock + scheduled.period
                    self.run_log.append((self.clock, name))
                    ran.append(name)
            self.clock += 1
        return ran

    def run_all(self, *, on_error: str = "raise") -> Dict[str, object]:
        """Run every registered pipe once, immediately.

        The runs go through the scheduler bookkeeping: each counts as the
        pipe's activation at the current clock (logged in ``run_log``) and
        pushes ``next_activation`` a full period out, so a following
        :meth:`tick` does not immediately double-run every pipe.

        ``on_error`` isolates pipe failures from each other: ``"raise"``
        (the default) aborts on the first failing pipe, which is not
        logged as an activation; ``"skip"`` drops the failed pipe from the
        results and runs the rest; ``"collect"`` puts an
        :class:`~repro.resilience.policy.ErrorResult` in the failed pipe's
        slot.
        """
        check_on_error(on_error)
        names = list(self._pipes)

        def activated(outcomes):
            for outcome in outcomes:
                if outcome.ok:
                    self._activated(names[outcome.index])
                yield outcome

        def isolate(error: BaseException, outcome) -> ErrorResult:
            name = names[outcome.index]
            self._activated(name)
            return ErrorResult.from_exception(error, url=f"pipe:{name}", backend="pipe")

        outcomes = run_tasks((None, self._pipes[name].pipeline.run) for name in names)
        slots = settle(activated(outcomes), on_error, isolate)
        return {names[index]: slot for index, slot in slots.items()}

    def _activated(self, name: str) -> None:
        """The scheduler bookkeeping of one :meth:`run_all` activation."""
        scheduled = self._pipes[name]
        scheduled.next_activation = self.clock + scheduled.period
        self.run_log.append((self.clock, name))

    # -- monitoring ----------------------------------------------------------
    def resilience_report(self) -> "Dict[str, ResilienceInfo]":
        """Per-component failure accounting across every hosted pipeline
        (``"pipe/component"`` keys; see :meth:`Pipeline.resilience_report`)."""
        return {
            f"{name}/{component}": info
            for name in self.pipes()
            for component, info in self._pipes[name].pipeline.resilience_report().items()
        }

