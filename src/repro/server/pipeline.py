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

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..datalog.cache import CacheInfo
from ..datalog.registry import plan_registry_info
from ..distrib.envelope import TaskEnvelope
from ..distrib.executor import (
    DistribInfo,
    DistribStats,
    ProcessExecutor,
    resolve_distrib,
)
from ..distrib.journal import task_id_for
from ..resilience.batch import check_on_error, run_tasks, settle
from ..resilience.policy import ErrorResult
from ..xmlgen.document import XmlElement
from .components import Component, DelivererComponent


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
        self._order = order
        return order

    def run(self, *, executor=None) -> Dict[str, XmlElement]:
        """Activate the sources and push documents through the network.

        Returns the output document of every component (keyed by name).

        When ``executor`` (a :class:`concurrent.futures.Executor`) is
        given, every component exposing ``prefetch`` — the wrapper
        components — starts acquiring its page on it before the push
        begins, so the fetch I/O of later sources overlaps the extraction
        and transformation of earlier ones (the async-capable fetcher
        protocol of :mod:`repro.elog.extractor`).
        """
        results: Dict[str, XmlElement] = {}
        try:
            if executor is not None:
                # Inside the guard: a prefetch that raises mid-way (pool
                # already shut down, fetcher refusing) must discard the
                # futures it did manage to start.
                self.prefetch_sources(executor)
            for name in self._topological_order():
                component = self._components[name]
                inputs = [
                    results[predecessor] for predecessor in self._inputs.get(name, [])
                ]
                results[name] = component.process(inputs)
        except BaseException:
            # A failed run must not leave resolved futures behind: a later
            # activation consuming a minutes-old snapshot (or replaying a
            # transient fetch error) would defeat change detection.
            self.discard_prefetches()
            raise
        self.last_results = results
        return results

    def prefetch_sources(self, executor) -> None:
        """Start every prefetch-capable component's acquisition on
        ``executor`` (idempotent until the fetch is consumed)."""
        for component in self._components.values():
            prefetch = getattr(component, "prefetch", None)
            if prefetch is not None:
                prefetch(executor)

    def discard_prefetches(self) -> None:
        """Drop every unconsumed prefetch (see :meth:`run`'s abort path)."""
        for component in self._components.values():
            discard = getattr(component, "discard_prefetch", None)
            if discard is not None:
                discard()

    def run_and_get(self, component_name: str) -> XmlElement:
        return self.run()[component_name]


@dataclass
class ScheduledPipe:
    """A pipe plus its activation strategy (every ``period`` ticks)."""

    pipe: InformationPipe
    period: int = 1
    next_activation: int = 0


class TransformationServer:
    """A container hosting several information pipes.

    The server advances a logical clock; on every :meth:`tick`, pipes whose
    activation period has elapsed are run.  This models the periodic refresh
    strategies of Section 6.1 ("upgraded at periodic intervals ranging from a
    few seconds up to hours or days") without real-time waiting.
    """

    def __init__(self) -> None:
        self._pipes: Dict[str, ScheduledPipe] = {}
        self.clock: int = 0
        self.run_log: List[Tuple[int, str]] = []
        # Scale-out accounting for run_all(distrib=...) activations.
        self._distrib_stats = DistribStats()

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

    def run_all(
        self, *, executor=None, on_error: str = "raise", distrib=None
    ) -> Dict[str, object]:
        """Run every registered pipe once, immediately.

        The runs go through the scheduler bookkeeping: each counts as the
        pipe's activation at the current clock (logged in ``run_log``) and
        pushes ``next_activation`` a full period out, so a following
        :meth:`tick` does not immediately double-run every pipe.

        With ``executor``, **every** pipe's wrapper components start their
        page fetches before the *first* pipe runs (one
        :meth:`InformationPipe.prefetch_sources` pass over all pipes), so
        acquisition I/O overlaps across the whole server, not just within
        one pipe.

        ``on_error`` isolates pipe failures from each other: ``"raise"``
        (the default) aborts on the first failing pipe, which is not
        logged as an activation; ``"skip"`` drops the failed pipe from the
        results and runs the rest; ``"collect"`` puts an
        :class:`~repro.resilience.policy.ErrorResult` in the failed pipe's
        slot.  A failed pipe discards its own prefetched futures either way
        (see :meth:`InformationPipe.run`), so isolation never strands a
        minutes-old snapshot for a later activation.

        ``distrib`` (``"process"`` / a worker count /
        :class:`~repro.distrib.DistribOptions`) runs every pipe in a
        **worker process** instead — real CPU parallelism across pipes,
        with the distrib layer's crash recovery (a pipe whose worker dies
        is requeued; see docs/DISTRIB.md).  Each pipe travels to its
        worker by pickle; the parent applies the scheduler bookkeeping and
        caches each pipe's results in ``last_results``, but worker-side
        component *side effects* — deliverer sends, per-component fetch
        logs and fault-plan counters — happen in the worker and are not
        copied back.  An unpicklable pipe fails fast with a
        :class:`PipelineError` naming it (``Pipeline.build(
        distributable=True)`` catches this at build time, per stage).
        """
        check_on_error(on_error)
        names = list(self._pipes)

        def activated(outcomes):
            for outcome in outcomes:
                if outcome.ok:
                    self._activated(names[outcome.index], outcome.result)
                yield outcome

        def isolate(error: BaseException, outcome) -> ErrorResult:
            name = names[outcome.index]
            self._activated(name)
            return ErrorResult.from_exception(error, url=f"pipe:{name}", backend="pipe")

        try:
            if distrib is not None:
                outcomes = self._run_on_workers(names, resolve_distrib(distrib))
            else:
                if executor is not None:
                    for scheduled in self._pipes.values():
                        scheduled.pipe.prefetch_sources(executor)
                outcomes = run_tasks((None, self._pipes[name].pipe.run) for name in names)
            slots = settle(activated(outcomes), on_error, isolate)
        except BaseException:
            # One failing pipe must not strand the later pipes' prefetched
            # futures — a future tick would extract stale snapshots.
            for scheduled in self._pipes.values():
                scheduled.pipe.discard_prefetches()
            raise
        return {names[index]: slot for index, slot in slots.items()}

    def _activated(self, name: str, results: Optional[Dict[str, XmlElement]] = None) -> None:
        """The scheduler bookkeeping of one :meth:`run_all` activation."""
        scheduled = self._pipes[name]
        if results is not None:
            # Worker-run pipes: later change detection and monitoring read
            # the pipe's last snapshot from here.
            scheduled.pipe.last_results = results
        scheduled.next_activation = self.clock + scheduled.period
        self.run_log.append((self.clock, name))

    def _run_on_workers(self, names: List[str], options) -> list:
        """Every pipe as one task on worker processes (``distrib=``)."""
        import pickle

        for name in names:
            try:
                pickle.dumps(self._pipes[name].pipe)
            except Exception as error:
                raise PipelineError(
                    f"pipe {name!r} cannot be distributed: it does not "
                    f"pickle ({type(error).__name__}: {error}).  Stages "
                    "holding lambdas, open handles or engine-bound state "
                    "must be rebuilt from declarative parts, or the pipe "
                    "run in-process"
                ) from error
        envelopes = [
            TaskEnvelope(
                task_id=task_id_for(index),
                index=index,
                kind="pipe",
                payload=self._pipes[name].pipe,
                payload_kind="pipe",
            )
            for index, name in enumerate(names)
        ]
        executor = ProcessExecutor(options, stats=self._distrib_stats)
        return executor.run(envelopes)

    # -- monitoring ----------------------------------------------------------
    def resilience_report(self):
        """Per-component failure accounting across every hosted pipe
        (``"pipe/component"`` keys; see
        :func:`repro.server.monitoring.resilience_report`)."""
        from .monitoring import resilience_report

        return resilience_report(self)

    def plan_registry_info(self) -> CacheInfo:
        """Statistics of the process-wide compiled-program registry.

        Exposed next to the per-component fixpoint caches so server
        monitoring can assert that its hundreds of components over a
        handful of programs really paid a handful of compilations.
        """
        return plan_registry_info()

    def distrib_info(self) -> DistribInfo:
        """The server's scale-out accounting across every
        ``run_all(distrib=...)`` activation (dispatch / ack / requeue
        counters, worker crash events, per-worker compile counts)."""
        return self._distrib_stats.snapshot()
