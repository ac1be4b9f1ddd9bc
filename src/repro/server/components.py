"""Components of the Lixto Transformation Server.

Section 5: "The overall task of information processing is composed into
stages that can be used as building blocks for assembling an information
processing pipeline [...]  The stages are to (1) acquire the required content
from the source locations; (2) integrate it, (3) transform it, and (4)
deliver results to the end users.  The actual data flow within the
Transformation Server is realized by handing over XML documents."

Every component consumes XML documents (:class:`~repro.xmlgen.XmlElement`)
and produces an XML document; wrapper (source) components consume HTML
through a fetcher instead.  Components are plain Python objects so new stages
can be added by subclassing :class:`Component`.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..datalog.options import DEFAULT_OPTIONS, EngineOptions
from ..elog.ast import ElogProgram
from ..elog.extractor import (
    Extractor,
    ExtractorCache,
    Fetcher,
    PrefetchedFetcher,
    wrapper_fingerprint,
)
from ..resilience.policy import ResilienceInfo, ResiliencePolicy, ResilienceStats
from ..resilience.retry import ResilientFetcher, call_with_retry
from ..xmlgen.document import XmlElement
from ..xmlgen.serializer import to_xml

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalog.registry import PlanRegistry
    from ..mdatalog.program import MonadicProgram
    from ..tree.document import Document


class Component:
    """Base class of all pipeline stages."""

    def __init__(self, name: str) -> None:
        self.name = name

    def process(self, inputs: List[XmlElement]) -> XmlElement:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.name!r})"


# ---------------------------------------------------------------------------
# Stage 1: acquisition (wrapper / source components)
# ---------------------------------------------------------------------------


#: Shared Elog interpreters, keyed by **program content** plus fetcher: N
#: wrapper components constructed over the same wrapper text and fetcher
#: reuse one Extractor — the same cross-component sharing the datalog side
#: gets from the compiled-plan registry.  Extraction state lives in the
#: per-run PatternInstanceBase, so one interpreter serves any number of
#: components.  The pre-PR-5 cache keyed by ``(id(program), id(fetcher))``
#: instead; :class:`repro.elog.extractor.ExtractorCache` documents why that
#: id()-reuse hazard (and the in-place-mutation staleness that comes with
#: mutable ``ElogProgram`` ASTs) demands content keys with verified hits.
#: Components that mutate their program *after* construction keep working:
#: ``WrapperComponent.process`` re-resolves its interpreter whenever its own
#: program's content has diverged from the shared interpreter's (a component
#: whose content-equal program object was aliased to a classmate's extractor
#: gets its own the moment it mutates) — though such callers should prefer
#: ``share_plans=False`` (a private interpreter) to content-keyed sharing.
_EXTRACTOR_CACHE: ExtractorCache = ExtractorCache(128)


def shared_extractor(program: ElogProgram, fetcher: Fetcher) -> Extractor:
    """One Elog interpreter per (program content, fetcher), process-wide."""
    return _EXTRACTOR_CACHE.get(program, fetcher)


class WrapperComponent(Component):
    """Acquires a page and runs an Elog wrapper over it (stage 1).

    This component resembles the Lixto Visual Wrapper embedded in the server:
    it is a boundary component that can activate itself (the scheduler calls
    :meth:`process` with no inputs).
    """

    def __init__(
        self,
        name: str,
        program: ElogProgram,
        fetcher: Fetcher,
        url: str,
        root_name: Optional[str] = None,
        *,
        options: Optional[EngineOptions] = None,
        extractor: Optional[Extractor] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        super().__init__(name)
        if options is None:
            options = DEFAULT_OPTIONS
        self.program = program
        self.fetcher = fetcher
        self.url = url
        self.root_name = root_name or name
        # Resilience (optional): the fetch boundary is wrapped in a
        # ResilientFetcher (retry/backoff/deadline + per-host breaker), and
        # process() keeps the last successful output so a failing source
        # can be served stale instead of failing the pipe.  Without a
        # policy the component behaves exactly as before — no wrapper, no
        # stale copy, no accounting.
        self.resilience = resilience
        self._stats = ResilienceStats() if resilience is not None else None
        self._last_good: Optional[XmlElement] = None
        acquire: Optional[Fetcher] = fetcher
        if resilience is not None and fetcher is not None:
            acquire = ResilientFetcher(fetcher, resilience, stats=self._stats)
        self._acquire = acquire
        # One interpreter per (program, fetcher) pair for the server's
        # lifetime: periodic activations — and, with ``share_plans`` (the
        # default; the pre-façade spelling ``share_interpreter`` is a
        # deprecated alias) — every other component wrapping the same
        # program reuses the interpreter instead of rebuilding an Extractor
        # per run (extraction state lives in the per-run
        # PatternInstanceBase, so reuse is safe).  A pre-built interpreter
        # (``extractor=``, the :class:`repro.api.Session` path) wins over
        # both: sessions own their extractors.
        if extractor is not None:
            if resilience is not None and extractor.fetcher is not self._acquire:
                # A session-supplied interpreter carries the bare fetcher;
                # re-twin it (cheap, shares program/concepts/limits) so its
                # acquisition goes through the resilient wrapper too.
                extractor = extractor.with_fetcher(self._acquire)
            self._extractor = extractor
            self._extractor_aliased = False
        elif options.share_plans:
            self._extractor = shared_extractor(self.program, self._acquire)
            # A cache hit may wrap a classmate's content-equal program
            # object; only such aliased interpreters are ever re-resolved.
            self._extractor_aliased = True
        else:
            self._extractor = Extractor(self.program, fetcher=self._acquire)
            self._extractor_aliased = False
        self._pending_fetch = None

    def prefetch(self, executor) -> None:
        """Start acquiring this wrapper's page ahead of :meth:`process`.

        Uses the async-capable fetcher protocol
        (:meth:`repro.elog.extractor.Fetcher.fetch_async`): the page fetch
        runs on ``executor`` while upstream components still compute, and
        the next :meth:`process` call consumes the in-flight future instead
        of fetching synchronously.  Idempotent until consumed.  The fetch
        goes through the *active extractor's* fetcher — a caller-supplied
        ``extractor=`` may carry its own — so prefetched and plain runs
        always acquire from the same source.
        """
        if self._pending_fetch is None:
            fetcher = self._current_extractor().fetcher
            if fetcher is not None:
                self._pending_fetch = fetcher.fetch_async(self.url, executor)

    def _current_extractor(self) -> Extractor:
        """This component's interpreter, tracking its own program's content.

        Content-keyed sharing can hand a component an interpreter built
        around a classmate's content-equal program object; if this
        component's *own* program is later mutated, that shared interpreter
        would silently ignore the edit (the identity-keyed pre-PR-5 cache
        gave every program object its own interpreter instead).  Only
        cache-aliased interpreters are ever re-resolved: a caller-supplied
        ``extractor=`` (which may carry custom concepts/limits/fetcher)
        and a private ``share_plans=False`` interpreter always win, per the
        constructor contract.  The identity check is free for sharing via
        one program object; the fingerprint comparison only runs for
        aliased components whose contents diverged.  The per-activation
        re-serialisation is deliberate: caching the fingerprints would miss
        in-place rule edits (the AST carries no mutation counter), and two
        small-string passes are noise next to the page fetch and Elog
        fixpoint each activation already pays.
        """
        extractor = self._extractor
        if (
            self._extractor_aliased
            and extractor.program is not self.program
            and wrapper_fingerprint(self.program)
            != wrapper_fingerprint(extractor.program)
        ):
            extractor = shared_extractor(self.program, self._acquire)
            self._extractor = extractor
        return extractor

    def discard_prefetch(self) -> None:
        """Drop an unconsumed prefetch so no later activation extracts a
        stale snapshot (called when the run that scheduled it aborts)."""
        pending, self._pending_fetch = self._pending_fetch, None
        if pending is not None:
            pending.cancel()

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        pending, self._pending_fetch = self._pending_fetch, None
        extractor = self._current_extractor()
        if pending is not None:
            # Crawl targets beyond the start page fall through to the same
            # fetcher the plain (un-prefetched) run would use.
            extractor = extractor.with_fetcher(
                PrefetchedFetcher(extractor.fetcher, {self.url: pending})
            )
        try:
            result = extractor.extract_to_xml(url=self.url, root_name=self.root_name)
        except Exception:
            stale = self._stale_copy()
            if stale is not None:
                return stale
            raise
        result.attributes["source"] = self.url
        if self.resilience is not None and self.resilience.serve_stale:
            self._last_good = result.copy()
        return result

    def _stale_copy(self) -> Optional[XmlElement]:
        """The last-good output marked stale, or ``None`` if degradation is
        off (no policy, ``serve_stale=False``) or nothing good was seen."""
        if (
            self.resilience is None
            or not self.resilience.serve_stale
            or self._last_good is None
        ):
            return None
        self._stats.bump("stale_served")
        stale = self._last_good.copy()
        stale.attributes["stale"] = "true"
        return stale

    def resilience_info(self) -> Optional[ResilienceInfo]:
        """Failure accounting (``None`` when no policy is configured)."""
        return self._stats.snapshot() if self._stats is not None else None


class XmlSourceComponent(Component):
    """A source component fed by a callable returning XML (used in tests)."""

    def __init__(self, name: str, supplier: Callable[[], XmlElement]) -> None:
        super().__init__(name)
        self.supplier = supplier

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        return self.supplier()


class DatalogQueryComponent(Component):
    """Runs a monadic datalog wrapper over a document source (stage 1).

    The component holds one reusable
    :class:`~repro.mdatalog.evaluator.MonadicTreeEvaluator` whose fixpoint
    LRU is sized for the server's working set: periodic activations over a
    handful of hot documents (the ``supplier`` returning whichever document
    is current) all hit the cache and skip re-evaluation.  Matched nodes are
    rendered as one XML record per query predicate.
    """

    def __init__(
        self,
        name: str,
        program: "MonadicProgram",
        supplier: "Callable[[], Document]",
        root_name: Optional[str] = None,
        *,
        options: Optional[EngineOptions] = None,
        registry: Optional["PlanRegistry"] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        super().__init__(name)
        from ..mdatalog.evaluator import MonadicTreeEvaluator

        self.supplier = supplier
        self.root_name = root_name or name
        # The supplier is this component's acquisition boundary: with a
        # policy its call is retried, and the last good output can be
        # served stale when acquisition or evaluation fails.
        self.resilience = resilience
        self._stats = ResilienceStats() if resilience is not None else None
        self._last_good: Optional[XmlElement] = None
        self._evaluator = MonadicTreeEvaluator(
            program, options=options, registry=registry
        )

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        try:
            if self.resilience is not None:
                document = call_with_retry(
                    self.supplier,
                    self.resilience.retry,
                    label=f"supplier:{self.name}",
                    stats=self._stats,
                )
            else:
                document = self.supplier()
            matches = self._evaluator.evaluate(document)
        except Exception:
            if (
                self.resilience is not None
                and self.resilience.serve_stale
                and self._last_good is not None
            ):
                self._stats.bump("stale_served")
                stale = self._last_good.copy()
                stale.attributes["stale"] = "true"
                return stale
            raise
        result = XmlElement(self.root_name)
        for predicate in sorted(matches):
            # Document order is this component's output contract: downstream
            # change detection diffs the serialised XML, so the ordering is
            # enforced here at the boundary rather than assumed from the
            # evaluator (whose interface does not promise any order).
            # Sorting an already-sorted list is a linear pass.
            nodes = sorted(matches[predicate], key=lambda node: node.preorder_index)
            for node in nodes:
                record = result.add(predicate)
                record.attributes["node"] = str(node.preorder_index)
                record.attributes["label"] = node.label
        if self.resilience is not None and self.resilience.serve_stale:
            self._last_good = result.copy()
        return result

    def resilience_info(self) -> Optional[ResilienceInfo]:
        """Failure accounting (``None`` when no policy is configured)."""
        return self._stats.snapshot() if self._stats is not None else None

    def cache_info(self):
        """Fixpoint-cache statistics of the underlying evaluator."""
        return self._evaluator.fixpoint_cache_info()


# ---------------------------------------------------------------------------
# Stage 2: integration
# ---------------------------------------------------------------------------


class IntegrationComponent(Component):
    """Merges the XML documents of several upstream components (stage 2)."""

    def __init__(self, name: str, root_name: Optional[str] = None) -> None:
        super().__init__(name)
        self.root_name = root_name or name

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        merged = XmlElement(self.root_name)
        for document in inputs:
            merged.append(document.copy())
        return merged


class JoinComponent(Component):
    """Joins records from two upstream documents on a key element.

    Used e.g. by the "Now Playing" application to attach chart positions and
    lyrics to the currently playing song.
    """

    def __init__(
        self,
        name: str,
        record_name: str,
        other_record_name: str,
        key: str,
        other_key: Optional[str] = None,
        root_name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.record_name = record_name
        self.other_record_name = other_record_name
        self.key = key
        self.other_key = other_key or key
        self.root_name = root_name or name

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        if not inputs:
            return XmlElement(self.root_name)
        primary, *others = inputs
        result = XmlElement(self.root_name)
        other_records: List[XmlElement] = []
        for document in others:
            other_records.extend(document.iter(self.other_record_name))
        # Records without a key (missing or empty key element) cannot join:
        # indexing them under the normalised empty string would cross-join
        # every keyless record on both sides.  They are skipped on the other
        # side and passed through unjoined on the primary side.
        index: Dict[str, List[XmlElement]] = {}
        for record in other_records:
            key = self._key_of(record, self.other_key)
            if key:
                index.setdefault(key, []).append(record)
        for record in primary.iter(self.record_name):
            joined = record.copy()
            key = self._key_of(record, self.key)
            if key:
                for match in index.get(key, []):
                    joined.append(match.copy())
            result.append(joined)
        return result

    @staticmethod
    def _key_of(record: XmlElement, key: str) -> str:
        return " ".join(record.findtext(key).lower().split())


# ---------------------------------------------------------------------------
# Stage 3: transformation
# ---------------------------------------------------------------------------


class TransformerComponent(Component):
    """Applies a user function to the (single) upstream document (stage 3)."""

    def __init__(self, name: str, function: Callable[[XmlElement], XmlElement]) -> None:
        super().__init__(name)
        self.function = function

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        if not inputs:
            return XmlElement(self.name)
        return self.function(inputs[0])


class FilterComponent(Component):
    """Keeps only the records satisfying a predicate."""

    def __init__(
        self,
        name: str,
        record_name: str,
        predicate: Callable[[XmlElement], bool],
        root_name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.record_name = record_name
        self.predicate = predicate
        self.root_name = root_name or name

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        result = XmlElement(self.root_name)
        for document in inputs:
            for record in document.iter(self.record_name):
                if self.predicate(record):
                    result.append(record.copy())
        return result


class SortComponent(Component):
    """Sorts records by a key element (numeric when possible)."""

    def __init__(
        self,
        name: str,
        record_name: str,
        key: str,
        reverse: bool = False,
        numeric: bool = True,
        root_name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.record_name = record_name
        self.key = key
        self.reverse = reverse
        self.numeric = numeric
        self.root_name = root_name or name

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        from ..elog.concepts import parse_number

        records: List[XmlElement] = []
        for document in inputs:
            records.extend(record.copy() for record in document.iter(self.record_name))

        def sort_key(record: XmlElement):
            value = record.findtext(self.key)
            if self.numeric:
                number = parse_number(value)
                if number is not None:
                    return (0, number)
            return (1, value.lower())

        result = XmlElement(self.root_name)
        for record in sorted(records, key=sort_key, reverse=self.reverse):
            result.append(record)
        return result


class RenameComponent(Component):
    """Renames elements according to a mapping (e.g. to NITF element names)."""

    def __init__(self, name: str, mapping: Dict[str, str], root_name: Optional[str] = None) -> None:
        super().__init__(name)
        self.mapping = mapping
        self.root_name = root_name

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        if not inputs:
            return XmlElement(self.root_name or self.name)
        document = inputs[0].copy()
        for element in document.iter():
            if element.name in self.mapping:
                element.name = self.mapping[element.name]
        if self.root_name:
            document.name = self.root_name
        return document


# ---------------------------------------------------------------------------
# Stage 4: delivery
# ---------------------------------------------------------------------------


@dataclass
class Delivery:
    """One delivered message (channel, recipient, subject, body)."""

    channel: str
    recipient: str
    subject: str
    body: str


class DelivererComponent(Component):
    """Base class of boundary components that push results to users."""

    def __init__(self, name: str, channel: str, recipient: str) -> None:
        super().__init__(name)
        self.channel = channel
        self.recipient = recipient
        self.deliveries: List[Delivery] = []

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        for document in inputs:
            self.deliveries.append(self.deliver(document))
        return inputs[0] if inputs else XmlElement(self.name)

    def deliver(self, document: XmlElement) -> Delivery:  # pragma: no cover
        raise NotImplementedError

    def last_delivery(self) -> Optional[Delivery]:
        return self.deliveries[-1] if self.deliveries else None


class XmlDeliverer(DelivererComponent):
    """Delivers the full XML document (e.g. to a downstream content system)."""

    def __init__(self, name: str, recipient: str = "downstream") -> None:
        super().__init__(name, channel="xml", recipient=recipient)

    def deliver(self, document: XmlElement) -> Delivery:
        return Delivery(self.channel, self.recipient, document.name, to_xml(document))


class SmsDeliverer(DelivererComponent):
    """Delivers a short text message (the flight-status application)."""

    def __init__(
        self,
        name: str,
        phone_number: str,
        summarise: Callable[[XmlElement], str],
    ) -> None:
        super().__init__(name, channel="sms", recipient=phone_number)
        self.summarise = summarise

    def deliver(self, document: XmlElement) -> Delivery:
        text = self.summarise(document)
        return Delivery(self.channel, self.recipient, "status update", text[:160])


class EmailDeliverer(DelivererComponent):
    """Delivers an e-mail style message."""

    def __init__(self, name: str, address: str, subject: str = "Lixto report") -> None:
        super().__init__(name, channel="email", recipient=address)
        self.subject = subject

    def deliver(self, document: XmlElement) -> Delivery:
        return Delivery(self.channel, self.recipient, self.subject, to_xml(document))


class HtmlPortalDeliverer(DelivererComponent):
    """Renders records into a small HTML portal page (mobile syndication)."""

    def __init__(self, name: str, record_name: str, fields: Sequence[str]) -> None:
        super().__init__(name, channel="html", recipient="portal")
        self.record_name = record_name
        self.fields = list(fields)
        self.page: str = ""

    def deliver(self, document: XmlElement) -> Delivery:
        # Field text is scraped content: a literal "<" or "&" must render as
        # data, never as markup injected into the portal page.
        rows = []
        for record in document.iter(self.record_name):
            cells = "".join(
                f"<td>{html.escape(record.findtext(field))}</td>"
                for field in self.fields
            )
            rows.append(f"<tr>{cells}</tr>")
        header = "".join(f"<th>{html.escape(field)}</th>" for field in self.fields)
        self.page = f"<html><body><table><tr>{header}</tr>{''.join(rows)}</table></body></html>"
        return Delivery(self.channel, self.recipient, self.record_name, self.page)
