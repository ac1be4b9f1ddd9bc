"""Information pipes: wiring components into push-based pipelines.

Section 5: "The 'pipe flow' can model very complex unidirectional information
flows [...]  Components which are not on the boundaries of the network are
only activated by their neighboring components.  Boundary components (i.e.,
wrapper and deliverer components) have the ability to activate themselves
according to a user specified strategy and trigger the information processing
on behalf of the user."

:class:`InformationPipe` is a DAG of named components; running it activates
the source components and pushes the resulting XML documents through the
network in topological order.  :class:`TransformationServer` hosts several
pipes, keeps per-source state for change detection, and simulates periodic
activation (the scheduler advances a logical clock instead of sleeping).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

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


class InformationPipe:
    """A DAG of components with XML hand-over along the edges."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._components: Dict[str, Component] = {}
        self._edges: Dict[str, List[str]] = defaultdict(list)   # component -> successors
        self._inputs: Dict[str, List[str]] = defaultdict(list)  # component -> predecessors
        self._order: Optional[List[str]] = None  # cached topological order
        self._shared: FrozenSet[str] = frozenset()  # see _topological_order
        self._memo: Dict[str, _Memo] = {}  # cut-off stage -> its last completed run
        self.last_results: Dict[str, XmlElement] = {}

    # -- construction ------------------------------------------------------
    #
    # Pipes are assembled by the declarative, build-time validated
    # ``repro.api.Pipeline.builder()`` through these underscore internals.

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

    def component(self, name: str) -> Component:
        return self._components[name]

    def components(self) -> List[Component]:
        return list(self._components.values())

    def sources(self) -> List[str]:
        return [name for name in self._components if not self._inputs.get(name)]

    def deliverers(self) -> List[DelivererComponent]:
        return [c for c in self._components.values() if isinstance(c, DelivererComponent)]

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
    """A pipe plus its activation strategy (every ``period`` ticks)."""

    pipe: InformationPipe
    period: int = 1
    next_activation: int = 0


#: How many activations :attr:`TransformationServer.run_log` keeps: a
#: long-running server must not grow it without bound.
RUN_LOG_SIZE = 1024


class TransformationServer:
    """A container hosting several information pipes.

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
    def register(self, pipe: InformationPipe, period: int = 1) -> InformationPipe:
        if pipe.name in self._pipes:
            raise PipelineError(f"duplicate pipe name {pipe.name!r}")
        self._pipes[pipe.name] = ScheduledPipe(pipe=pipe, period=max(1, period))
        return pipe

    def pipe(self, name: str) -> InformationPipe:
        return self._pipes[name].pipe

    def pipes(self) -> List[str]:
        return sorted(self._pipes)

    # -- execution -----------------------------------------------------------
    def tick(self, steps: int = 1) -> List[str]:
        """Advance the clock; returns the names of the pipes that ran."""
        ran: List[str] = []
        for _ in range(steps):
            for name, scheduled in self._pipes.items():
                if self.clock >= scheduled.next_activation:
                    scheduled.pipe.run()
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

        outcomes = run_tasks((None, self._pipes[name].pipe.run) for name in names)
        slots = settle(activated(outcomes), on_error, isolate)
        return {names[index]: slot for index, slot in slots.items()}

    def _activated(self, name: str) -> None:
        """The scheduler bookkeeping of one :meth:`run_all` activation."""
        scheduled = self._pipes[name]
        scheduled.next_activation = self.clock + scheduled.period
        self.run_log.append((self.clock, name))

    # -- monitoring ----------------------------------------------------------
    def resilience_report(self):
        """Per-component failure accounting across every hosted pipe
        (``"pipe/component"`` keys; see
        :func:`repro.server.monitoring.resilience_report`)."""
        from .monitoring import resilience_report

        return resilience_report(self)

