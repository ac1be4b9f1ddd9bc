"""The Session: one front door to every evaluator of the reproduction.

A :class:`Session` is the façade's unit of ownership.  It holds

* one :class:`~repro.datalog.options.EngineOptions` applied to every
  evaluator it builds,
* its **own** :class:`~repro.datalog.registry.PlanRegistry` — compiled
  programs (strata, rule plans, trigger maps) are shared across the
  session's engines without touching the process-wide singleton, so two
  sessions never contend on module globals and dropping the session drops
  every compilation it paid for,
* an evaluator memo per (backend, program content, options) — the
  per-engine state (join-order memos, fixpoint LRUs) lives inside those
  memoised engines, and
* a parse memo per Elog wrapper text.

Everything evaluates through the backend registry
(:mod:`repro.api.backends`): callers pick ``"semi-naive"``, ``"monadic"``
or ``"automata"`` by name, or let the program's type choose.  Results come
back as the uniform :class:`~repro.api.results.QueryResult` /
:class:`~repro.api.results.ExtractionResult` views.

The batch entry points — :meth:`Session.query_many` and
:meth:`Session.extract_many` — are the server-style path: one compiled
program, one parsed wrapper, streamed over many documents, so plan sharing
and the fixpoint LRUs do their work across the whole stream.  Both only
build one task per slot; the shared batch executor
(:mod:`repro.resilience.batch`) runs them — ``max_workers=`` on one
windowed thread pool, where the ``urls=`` slots' fetches overlap — and
applies the ``on_error`` slot policy.

Thread safety: one ``Session`` is safe to share across the request threads
of a server front end.  Every session-scale cache locks internally
(:mod:`repro.datalog.cache`), and the evaluator/parse/analysis memos
build through :meth:`~repro.datalog.cache.LruMap.get_or_build`, so
concurrent :meth:`Session.engine` / :meth:`Session.wrapper` calls over one
cold key construct exactly one instance (see docs/API.md, "Thread safety &
concurrency").
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..analysis.analyzer import ELOG, analyze as _analyze_program, sniff_kind
from ..analysis.datalog_checks import TREE_SIGNATURE
from ..analysis.diagnostics import AnalysisReport, apply_policy
from ..datalog.ast import Program
from ..datalog.cache import CacheInfo, LruMap
from ..datalog.engine import EngineInfo, aggregate_engine_info
from ..datalog.options import DEFAULT_OPTIONS, EngineOptions
from ..datalog.parser import DatalogSyntaxError
from ..datalog.registry import PlanRegistry
from ..elog.ast import ElogProgram
from ..elog.extractor import Extractor, Fetcher, wrapper_fingerprint
from ..elog.parser import ElogSyntaxError, parse_elog
from ..mdatalog.program import MonadicProgram
from ..resilience.batch import check_on_error, run_tasks, settle
from ..resilience.policy import (
    ErrorResult,
    ResilienceInfo,
    ResiliencePolicy,
    ResilienceStats,
)
from ..resilience.retry import ResilientFetcher
from ..tree.document import Document
from ..tree.node import Node
from .backends import EvaluatorBackend, backend_named, infer_backend
from .results import ExtractionResult, QueryResult


class Session:
    """A configured, stateful entry point over all evaluation layers.

    Parameters
    ----------
    options:
        The :class:`EngineOptions` applied to every evaluator the session
        builds (defaults to the stock options).
    registry:
        The compiled-program registry the session's engines share.  By
        default each session owns a private one; pass
        :func:`repro.datalog.shared_registry` to join the process-wide
        registry instead (several sessions amortising one compilation), or
        any other registry to share between chosen sessions.
    resilience:
        An optional :class:`~repro.resilience.policy.ResiliencePolicy`.
        When set, every fetch the session performs on a caller's behalf
        (``extract``/``extract_many``) goes through a
        :class:`~repro.resilience.retry.ResilientFetcher` (retry, backoff,
        deadline, per-host circuit breaking), the policy's ``on_error``
        becomes the default batch error policy, and all failure accounting
        aggregates into :meth:`resilience_info`.  Without a policy the
        session behaves exactly as before.
    """

    #: Capacities of the session-level memos.  Bounded like every other
    #: server-scale cache in the stack (see :mod:`repro.datalog.cache`):
    #: a long-lived session streaming documents with ever-new label
    #: alphabets (automata backend) or wrapper texts must not grow without
    #: limit — an evicted evaluator merely recompiles through the
    #: registry on next use.
    MAX_EVALUATORS = 64
    MAX_WRAPPERS = 64
    MAX_ANALYSES = 64

    def __init__(
        self,
        options: Optional[EngineOptions] = None,
        *,
        registry: Optional[PlanRegistry] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        self.options = options if options is not None else DEFAULT_OPTIONS
        self.registry = registry if registry is not None else PlanRegistry()
        self.resilience = resilience
        # One stats sink for the whole session: every resilient fetcher the
        # session wraps, and every isolated batch error, reports here.
        self._resilience_stats = ResilienceStats()
        # Every memo below builds through get_or_build, so at most one
        # evaluator / parsed program / report is ever *constructed* per key
        # under concurrency.
        self._evaluators: LruMap[Tuple[str, Hashable], object] = LruMap(
            self.MAX_EVALUATORS
        )
        self._parsed_wrappers: LruMap[str, ElogProgram] = LruMap(self.MAX_WRAPPERS)
        # (backend name, program text) -> normalised program, so repeated
        # session.query(TEXT, ...) calls parse once, not per call.
        self._parsed_programs: LruMap[Tuple[str, str], object] = LruMap(
            self.MAX_EVALUATORS
        )
        self._backends_used: set = set()
        # Elog analysis reports, keyed by wrapper content fingerprint (the
        # datalog side caches in the registry's analysis store instead, so
        # content-equal programs across engines share one report).
        self._elog_analyses: LruMap[Hashable, AnalysisReport] = LruMap(
            self.MAX_ANALYSES
        )

    # ------------------------------------------------------------------
    # Resilience plumbing
    # ------------------------------------------------------------------
    def _resolve_on_error(self, on_error: Optional[str]) -> str:
        """An explicit ``on_error=`` wins; otherwise the session policy's
        default applies (``"raise"`` without a policy)."""
        if on_error is None:
            return self.resilience.on_error if self.resilience is not None else "raise"
        return check_on_error(on_error)

    def _resilient(self, fetcher: Optional[Fetcher]) -> Optional[Fetcher]:
        """``fetcher`` hardened under the session policy (pass-through when
        no policy or no fetcher).  A fresh wrapper per call: retry state is
        call-local, while the accounting aggregates into the session-wide
        stats sink."""
        if fetcher is None or self.resilience is None:
            return fetcher
        return ResilientFetcher(
            fetcher, self.resilience, stats=self._resilience_stats
        )

    # ------------------------------------------------------------------
    # Evaluator construction (memoised per backend + program content)
    # ------------------------------------------------------------------
    def engine(
        self,
        program: object,
        backend: Optional[str] = None,
        *,
        labels: Optional[Iterable[str]] = None,
    ) -> object:
        """The session's (memoised) evaluator for ``program``.

        ``backend`` defaults by program type: datalog :class:`Program` →
        ``"semi-naive"``, :class:`MonadicProgram` → ``"monadic"``,
        :class:`TreeAutomaton` → ``"automata"``.  Program *text* needs an
        explicit backend name.  ``labels`` pins the label alphabet of the
        automata compilation — required here (only :meth:`query` can
        derive it from the queried document).
        """
        resolved, native, label_key = self._resolve(program, backend, labels)
        self._enforce_diagnostics(resolved, native)
        return self._memoised(resolved, native, label_key)

    def _memoised(
        self,
        resolved: EvaluatorBackend,
        native: object,
        label_key: Optional[Tuple[str, ...]],
    ) -> object:
        key = (resolved.name, resolved.cache_key(native, self.options, label_key))

        def build() -> object:
            evaluator = resolved.build(native, self.options, self.registry, label_key)
            self._backends_used.add(resolved.name)
            return evaluator

        # N request threads hitting one cold key pay one compilation and
        # share the one evaluator it produced.
        return self._evaluators.get_or_build(key, build)

    def _resolve(
        self,
        program: object,
        backend: Optional[str],
        labels: Optional[Iterable[str]],
        source: Optional[object] = None,
    ) -> Tuple[EvaluatorBackend, object, Optional[Tuple[str, ...]]]:
        resolved = backend_named(backend) if backend else infer_backend(program)
        if isinstance(program, str):
            native = self._parsed_programs.get_or_build(
                (resolved.name, program), partial(resolved.normalise, program)
            )
        else:
            native = resolved.normalise(program)
        label_key: Optional[Tuple[str, ...]] = None
        if labels is not None:
            label_key = tuple(sorted(set(labels)))
        elif isinstance(source, Document):
            label_key = tuple(sorted(source.labels()))
        return resolved, native, label_key

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        program: object,
        source: object,
        backend: Optional[str] = None,
        *,
        labels: Optional[Iterable[str]] = None,
    ) -> QueryResult:
        """Evaluate ``program`` over one source, uniformly wrapped.

        ``source`` is a ``{predicate: facts}`` database or a
        :class:`Document` (semi-naive accepts both; monadic and automata
        take documents).
        """
        resolved, native, label_key = self._resolve(program, backend, labels, source)
        self._enforce_diagnostics(resolved, native)
        return resolved.run(self._memoised(resolved, native, label_key), source)

    def query_many(
        self,
        program: object,
        sources: Iterable[object],
        backend: Optional[str] = None,
        *,
        labels: Optional[Iterable[str]] = None,
        max_workers: Optional[int] = None,
        on_error: Optional[str] = None,
    ) -> List[QueryResult]:
        """The batch path: one compiled evaluator over a source stream.

        All sources run through a single memoised evaluator, so the
        compilation is paid once, the fixpoint LRU serves repeated
        documents, and (for the automata backend) one program covering the
        union of the documents' labels is compiled instead of one per
        document.

        ``max_workers`` > 1 evaluates the stream on a thread pool (result
        order still matches ``sources``).  Evaluation is safe to fan out —
        per-call state is call-local and the shared caches lock — but it is
        CPU-bound Python, so threads pay the GIL; the pool buys the most
        when sources hit the fixpoint LRU unevenly or the caller's fetcher
        / supplier does I/O.

        ``on_error`` isolates per-source failures: ``"raise"`` (default)
        aborts the batch on the first failure, ``"skip"`` drops failed
        slots, ``"collect"`` yields an
        :class:`~repro.resilience.policy.ErrorResult` in the failed slot
        (result order still matches ``sources``).  A session constructed
        with ``resilience=`` defaults to its policy's ``on_error``.

        ``sources`` may also be a generator: the stream feeds a bounded
        dispatch window instead of being materialised (label-union
        derivation then needs an explicit ``labels=`` for the automata
        backend).
        """
        on_error = self._resolve_on_error(on_error)
        if labels is None and isinstance(sources, Sequence):
            union: set = set()
            for source in sources:
                if isinstance(source, Document):
                    union.update(source.labels())
            labels = union or None
        # Resolve and normalise once for the whole stream — per-source
        # query() calls would re-parse text programs and recompute the
        # content cache key N times just to hit the same memo entry.
        resolved, native, label_key = self._resolve(program, backend, labels)
        self._enforce_diagnostics(resolved, native)
        evaluator = self._memoised(resolved, native, label_key)
        outcomes = run_tasks(
            ((None, partial(resolved.run, evaluator, source)) for source in sources),
            max_workers,
        )
        return self._settle(outcomes, on_error, resolved.name)

    def select(
        self,
        program: object,
        document: Document,
        predicate: str,
        backend: Optional[str] = None,
    ) -> Tuple[Node, ...]:
        """The nodes one predicate selects — shorthand over :meth:`query`."""
        return self.query(program, document, backend).nodes(predicate)

    # ------------------------------------------------------------------
    # Elog extraction
    # ------------------------------------------------------------------
    def wrapper(
        self,
        program: "ElogProgram | str",
        fetcher: Optional[Fetcher] = None,
    ) -> Extractor:
        """An Elog interpreter for ``program`` acquiring through ``fetcher``.

        Program text is parsed once per distinct text, so every call over
        one text wraps the same :class:`ElogProgram`: mutating it (e.g.
        ``session.wrapper(TEXT).program.mark_auxiliary(...)``) flows through
        to every later use of that text in this session, while callers that
        need a private copy should parse their own.  The interpreter itself
        is built per call (it holds no compiled state); with a resilience
        policy its fetcher is a
        :class:`~repro.resilience.retry.ResilientFetcher` around ``fetcher``.
        """
        return Extractor(self._checked_wrapper(program), fetcher=self._resilient(fetcher))

    def _checked_wrapper(self, program: "ElogProgram | str") -> ElogProgram:
        """``program`` parsed through the session memo, with the
        ``options.on_diagnostics`` policy applied to its analysis."""
        if isinstance(program, str):
            program = self._parsed_wrapper(program)
        if self.options.on_diagnostics != "ignore":
            apply_policy(
                self._elog_report(program),
                self.options.on_diagnostics,
                "elog wrapper",
            )
        return program

    def _parsed_wrapper(self, text: str) -> ElogProgram:
        return self._parsed_wrappers.get_or_build(text, partial(parse_elog, text))

    def extract(
        self,
        program: "ElogProgram | str",
        document: Optional[Document] = None,
        *,
        documents: Optional[Sequence[Document]] = None,
        url: Optional[str] = None,
        fetcher: Optional[Fetcher] = None,
    ) -> ExtractionResult:
        """Run an Elog wrapper and return the uniform extraction result.

        Accepts any combination of a single ``document``, several
        ``documents`` and a start ``url`` (which requires ``fetcher``),
        exactly like :meth:`Extractor.extract`; the result's
        :meth:`~repro.api.results.ExtractionResult.to_xml` already knows
        the program's auxiliary patterns.
        """
        extractor = self.wrapper(program, fetcher)
        base = extractor.extract(document=document, documents=documents, url=url)
        return ExtractionResult(base, auxiliary=extractor.program.auxiliary_patterns)

    def extract_many(
        self,
        program: "ElogProgram | str",
        documents: Iterable[Document] = (),
        *,
        urls: Iterable[str] = (),
        fetcher: Optional[Fetcher] = None,
        max_workers: Optional[int] = None,
        on_error: Optional[str] = None,
    ) -> List[ExtractionResult]:
        """The batch extraction path for server-style document streams.

        One interpreter — hence one parsed program — serves the whole stream;
        each document (or fetched URL) yields its own
        :class:`ExtractionResult`.

        ``max_workers`` > 1 runs the stream on one thread pool with a
        bounded window of ``max_workers * 4`` slots in flight; a ``urls=``
        slot fetches inside its own task, so on fetch-bound workloads the
        fetches of the whole window overlap each other and evaluation.
        Result order always matches ``documents`` + ``urls``, each URL
        *instance* is fetched once (a duplicated URL twice, exactly like
        the sequential path), and fetch errors surface exactly as the
        sequential path raises them.

        ``on_error`` isolates per-document failures — ``"raise"``
        (default) / ``"skip"`` / ``"collect"``, exactly as in
        :meth:`query_many`; a collected failure's
        :class:`~repro.resilience.policy.ErrorResult` carries the slot's
        URL (when it has one) plus the attempt/elapsed metadata the retry
        layer annotated.  A session constructed with ``resilience=``
        additionally routes every fetch through a
        :class:`~repro.resilience.retry.ResilientFetcher` and defaults
        ``on_error`` to its policy's.

        ``documents`` / ``urls`` may be generators; they then stream into a
        bounded dispatch window instead of being materialised.
        """
        on_error = self._resolve_on_error(on_error)
        extractor = self.wrapper(program, fetcher)
        auxiliary = extractor.program.auxiliary_patterns

        def extract(**source: object) -> ExtractionResult:
            return ExtractionResult(extractor.extract(**source), auxiliary=auxiliary)

        tasks = chain(
            ((getattr(doc, "url", None), partial(extract, document=doc)) for doc in documents),
            ((url, partial(extract, url=url)) for url in urls),
        )
        outcomes = run_tasks(tasks, max_workers)
        return self._settle(outcomes, on_error, "elog")

    def _settle(self, outcomes: Iterable, on_error: str, backend: str) -> list:
        """Batch outcomes into result slots under ``on_error``; every
        isolated failure is counted in :meth:`resilience_info`."""

        def isolate(error: BaseException, slot) -> ErrorResult:
            self._resilience_stats.bump("errors_isolated")
            return ErrorResult.from_exception(
                error, index=slot.index, url=slot.url, backend=backend
            )

        return list(settle(outcomes, on_error, isolate).values())

    # ------------------------------------------------------------------
    # Pipelines
    # ------------------------------------------------------------------
    def pipeline(self, name: str = "pipeline"):
        """A :class:`~repro.api.pipeline.PipelineBuilder` bound to this
        session (its wrapper/query stages reuse the session's parse memo,
        options and plan registry)."""
        from .pipeline import PipelineBuilder

        return PipelineBuilder(name, session=self)

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    def analyze(
        self,
        program: object,
        *,
        kind: Optional[str] = None,
        edb: Optional[object] = None,
        query_predicates: Optional[Sequence[str]] = None,
    ) -> AnalysisReport:
        """The static-analysis report for ``program``, cached per content.

        Accepts everything :func:`repro.analysis.analyze` accepts: a
        datalog :class:`Program`, a :class:`MonadicProgram` (analyzed
        against the tau_ur tree EDB signature), an :class:`ElogProgram`,
        or source text (language sniffed, or forced via ``kind=``).
        Reports are cached by program *content* — datalog reports in the
        session registry's analysis store, Elog reports per wrapper
        fingerprint — so a second call on a content-equal program does no
        re-analysis (see :meth:`analysis_info`).

        ``edb`` and ``query_predicates`` refine the datalog checks (see
        :func:`repro.analysis.check_program`); pass
        ``edb=repro.analysis.TREE_SIGNATURE`` to validate against the tree
        relations.
        """
        if isinstance(program, ElogProgram):
            return self._elog_report(program)
        if isinstance(program, MonadicProgram):
            return self._datalog_report(
                program.to_datalog_program(),
                edb if edb is not None else TREE_SIGNATURE,
                query_predicates,
            )
        if isinstance(program, Program):
            return self._datalog_report(program, edb, query_predicates)
        if isinstance(program, str):
            resolved = kind or sniff_kind(program)
            # Parse through the session memos so analyze/query over the
            # same text share one parse and one content-keyed report;
            # unparseable text falls back to the analyzer, whose report is
            # a single D000/E000 syntax diagnostic.
            if resolved == ELOG:
                try:
                    parsed: object = self._parsed_wrapper(program)
                except ElogSyntaxError:
                    return _analyze_program(program, kind=ELOG)
                return self._elog_report(parsed)
            try:
                parsed = self._resolve(program, "semi-naive", None)[1]
            except DatalogSyntaxError:
                return _analyze_program(program, kind=resolved)
            return self._datalog_report(parsed, edb, query_predicates)
        raise TypeError(
            f"cannot analyze {type(program).__name__}; expected Program, "
            "MonadicProgram, ElogProgram or source text"
        )

    def explain(
        self,
        program: object,
        query: Optional[Sequence[str]] = None,
        *,
        edb: Optional[object] = None,
        domain_size: Optional[int] = None,
    ):
        """The evaluation plan of ``program``, cached per program content.

        Accepts the same shapes as :meth:`analyze` (datalog
        :class:`Program`, :class:`MonadicProgram`, :class:`ElogProgram` —
        translated through the monadic layer — or source text) and returns
        an :class:`~repro.analysis.explain.ExplainReport`: the join orders
        the engine's greedy planner picks from estimated relation sizes,
        filter hoist points, advised index keys, estimated cardinalities
        and ``P00x`` performance diagnostics.  The engines plan from live
        sizes, so the report is a prediction, not a promise of what a
        fixpoint runs.  ``query`` narrows the demand
        analysis to the named query predicates.  Reports are cached in the
        registry's analysis store, keyed by program content + arguments.
        """
        from ..analysis.explain import DEFAULT_DOMAIN_SIZE, explain as _explain
        from ..elog.to_mdatalog import to_monadic_datalog

        size = domain_size if domain_size is not None else DEFAULT_DOMAIN_SIZE
        if isinstance(program, str):
            # Parse through the session memos, like analyze()/query().
            if sniff_kind(program) == ELOG:
                program = self._parsed_wrapper(program)
            else:
                program = self._resolve(program, "semi-naive", None)[1]
        if isinstance(program, ElogProgram):
            program = to_monadic_datalog(program)
        if isinstance(program, MonadicProgram):
            if query is None:
                query = tuple(sorted(program.query_predicates))
            if edb is None:
                edb = TREE_SIGNATURE
            program = program.to_datalog_program()
        if not isinstance(program, Program):
            raise TypeError(
                f"cannot explain {type(program).__name__}; expected Program, "
                "MonadicProgram, ElogProgram or source text"
            )
        if edb is not None and not isinstance(edb, str):
            edb = frozenset(edb)
        key = (
            "explain",
            edb,
            tuple(query) if query is not None else None,
            size,
        )
        resolved = program
        return self.registry.analysis_cached(
            resolved,
            lambda: _explain(resolved, query, edb=edb, domain_size=size),
            key=key,
        )

    def _datalog_report(
        self,
        program: Program,
        edb: Optional[object],
        query_predicates: Optional[Sequence[str]],
    ) -> AnalysisReport:
        if edb is None or isinstance(edb, str):
            edb_key: object = edb
        else:
            edb = frozenset(edb)
            edb_key = edb
        key = (
            "analysis",
            edb_key,
            tuple(query_predicates) if query_predicates else None,
        )
        return self.registry.analysis_cached(
            program,
            lambda: _analyze_program(
                program, edb=edb, query_predicates=query_predicates
            ),
            key=key,
        )

    def _elog_report(self, program: ElogProgram) -> AnalysisReport:
        return self._elog_analyses.get_or_build(
            wrapper_fingerprint(program), partial(_analyze_program, program)
        )

    def _enforce_diagnostics(
        self, resolved: EvaluatorBackend, native: object
    ) -> None:
        """Apply ``options.on_diagnostics`` before building an evaluator.

        Datalog and monadic programs are analyzed (once per content — the
        report cache makes every later call a lookup); the automata backend
        is exempt (a :class:`TreeAutomaton` is not a logic program).
        """
        policy = self.options.on_diagnostics
        if policy == "ignore":
            return
        if isinstance(native, MonadicProgram):
            report = self._datalog_report(
                native.to_datalog_program(), TREE_SIGNATURE, None
            )
        elif isinstance(native, Program):
            report = self._datalog_report(native, None, None)
        else:
            return
        apply_policy(report, policy, f"{resolved.name} program")

    def analysis_info(self) -> Dict[str, CacheInfo]:
        """Hit/miss statistics of the analysis-report caches, by kind."""
        return {
            "datalog": self.registry.analysis_info(),
            "elog": self._elog_analyses.info(),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def plan_registry_info(self) -> CacheInfo:
        """Hit/miss statistics of the session-owned compiled-plan registry."""
        return self.registry.info()

    def engine_info(self) -> EngineInfo:
        """Aggregated storage/executor counters of the session's engines.

        Sums :meth:`~repro.datalog.engine.SemiNaiveEngine.engine_info`
        across every memoised evaluator that evaluates relationally (the
        semi-naive backend, plus monadic/automata evaluators running on the
        generic fallback engine).  All-zero until a query actually
        evaluates.
        """
        infos = []
        for evaluator in self._evaluators.values():
            probe = getattr(evaluator, "engine_info", None)
            if probe is None:
                continue
            info = probe()
            if info is not None:
                infos.append(info)
        return aggregate_engine_info(infos)

    def resilience_info(self) -> ResilienceInfo:
        """The session-wide failure accounting: attempts/retries/failures of
        every resilient fetch made on the session's behalf, circuit-breaker
        trips and rejections, and the batch slots isolated under
        ``on_error="skip"|"collect"``.  All zeros until a policy (or an
        isolating ``on_error=``) is used."""
        return self._resilience_stats.snapshot()

    def info(self) -> Dict[str, object]:
        """A monitoring snapshot of everything the session owns."""
        return {
            "options": self.options,
            "backends": set(self._backends_used),
            "evaluators": len(self._evaluators),
            "plan_registry": self.registry.info(),
            "resilience": self._resilience_stats.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(evaluators={len(self._evaluators)}, "
            f"wrappers={len(self._parsed_wrappers)}, options={self.options})"
        )
