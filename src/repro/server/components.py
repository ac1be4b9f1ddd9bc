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
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..datalog.options import EngineOptions
from ..elog.ast import ElogProgram
from ..elog.extractor import Extractor, Fetcher, Page, wrapper_fingerprint
from ..resilience.policy import ResilienceInfo, ResiliencePolicy, ResilienceStats
from ..resilience.retry import ResilientFetcher, call_with_retry
from ..xmlgen.document import XmlElement
from ..xmlgen.serializer import to_xml

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalog.registry import PlanRegistry
    from ..mdatalog.program import MonadicProgram
    from ..tree.document import Document


#: A revision no output has carried before (unique across the process).
#: An information pipe runs a stage again only when a revision it consumes
#: is new (see :meth:`repro.server.pipeline.InformationPipe.run`).
fresh_revision = itertools.count(1).__next__


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


class _SourceComponent(Component):
    """A source stage's last good output, and serving it stale.

    With a :class:`ResiliencePolicy` whose ``serve_stale`` is on, a source
    whose acquisition fails serves its last good output marked
    ``stale="true"`` instead of failing the pipe.  Without a policy there
    is no degradation and no accounting.
    """

    def __init__(self, name: str, resilience: Optional[ResiliencePolicy]) -> None:
        super().__init__(name)
        self.resilience = resilience
        self._stats = ResilienceStats() if resilience is not None else None
        self._last_good: Optional[XmlElement] = None

    def _stale(self) -> Optional[XmlElement]:
        """The last-good output marked stale, or ``None`` if degradation is
        off (no policy, ``serve_stale=False``) or nothing good was seen:
        a new root over its children, shared read-only."""
        last_good = self._last_good
        if self.resilience is None or not self.resilience.serve_stale or last_good is None:
            return None
        self._stats.bump("stale_served")
        stale = XmlElement(last_good.name, last_good.attributes, last_good.text)
        stale.attributes["stale"] = "true"
        stale.children = list(last_good.children)
        return stale

    def resilience_info(self) -> Optional[ResilienceInfo]:
        """Failure accounting (``None`` when no policy is configured)."""
        return self._stats.snapshot() if self._stats is not None else None


#: One read of a traced activation: the URL and the validator of the page it
#: got, ``None`` when the fetch failed or the page carries no validator.
_TraceRead = Tuple[str, object]


class _TracingFetcher(Fetcher):
    """One wrapper activation's view of its source.

    :meth:`verify` refetches a trace's pages in order and stops at the
    first page that fails to match.  The pages it fetched, and the error it
    hit, are then served once each to the extraction that follows, so no
    URL is fetched twice in one activation and every fetch draws exactly
    what the extraction alone would have drawn.  Every read is recorded in
    :attr:`reads`, in order: the next activation's trace.
    """

    def __init__(self, base: Fetcher) -> None:
        self.base = base
        self.fetched: Dict[str, object] = {}
        self.reads: List[_TraceRead] = []

    def verify(self, trace: Sequence[_TraceRead]) -> bool:
        """Whether every traced page is still the page the trace read."""
        for url, validator in trace:
            if validator is None:
                return False
            try:
                page = self.base.fetch_page(url)
            except Exception as error:
                self.fetched[url] = error
                return False
            self.fetched[url] = page
            if page.validator != validator:
                return False
        return True

    def fetch_page(self, url: str) -> Page:
        fetched = self.fetched.pop(url, None)
        try:
            if fetched is None:
                fetched = self.base.fetch_page(url)
            elif isinstance(fetched, Exception):
                raise fetched
        except Exception:
            self.reads.append((url, None))
            raise
        self.reads.append((url, fetched.validator))
        return fetched


class WrapperComponent(_SourceComponent):
    """Acquires a page and runs an Elog wrapper over it (stage 1).

    This component resembles the Lixto Visual Wrapper embedded in the server:
    it is a boundary component that can activate itself (the scheduler calls
    :meth:`process` with no inputs).

    Activations are change-driven.  The component keeps a *verifying trace*
    of its last successful extraction: the ``(url, validator)`` of every
    page it read, in order (a crawl reads several), plus the output, which
    is also the last good output stale serving uses.  An activation first
    refetches the traced pages; when every validator matches, it serves
    that output again (inside a pipe the stored output itself, read-only;
    :meth:`process` a copy) and nothing is parsed or extracted (Mokhov,
    Mitchell & Peyton Jones, "Build systems à la carte", ICFP 2018).  The
    trace also names the program's content, the URL and the root name; a
    change to any of them forces a fresh extraction.  An extraction builds
    its :class:`~repro.elog.extractor.Extractor` on the spot: the
    interpreter holds no compiled state, so there is nothing to share.

    :attr:`revision` names the content of the last output.  A trace hit
    that follows a good output keeps it, so the pipe cuts off the stages
    downstream ("early cutoff" in the same paper).  A fresh extraction, a
    stale serve and the first good output after a stale serve each draw a
    new one.
    """

    def __init__(
        self,
        name: str,
        program: ElogProgram,
        fetcher: Fetcher,
        url: str,
        root_name: Optional[str] = None,
        *,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        super().__init__(name, resilience)
        self.program = program
        self.fetcher = fetcher
        self.url = url
        self.root_name = root_name or name
        # With a policy the fetch boundary is wrapped in a ResilientFetcher
        # (retry/backoff/deadline + per-host breaker); without one the
        # component fetches through the bare fetcher.
        acquire: Optional[Fetcher] = fetcher
        if resilience is not None and fetcher is not None:
            acquire = ResilientFetcher(fetcher, resilience, stats=self._stats)
        self._acquire = acquire
        # The verifying trace: (key, reads) of the last successful
        # extraction, whose output is ``_last_good``.
        self._trace: Optional[Tuple[tuple, List[_TraceRead]]] = None
        #: The revision of the last output (0 before the first).
        self.revision = 0
        self._served_stale = False

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        return self._activate(inputs).copy()

    def _activate(self, inputs: List[XmlElement]) -> XmlElement:
        """One activation, sharing the stored last good output: read-only."""
        key = (wrapper_fingerprint(self.program), self.url, self.root_name)
        reads = _TracingFetcher(self._acquire) if self._acquire is not None else None
        try:
            if (
                reads is not None
                and self._trace is not None
                and self._trace[0] == key
                and reads.verify(self._trace[1])
            ):
                # Every read page is unchanged: so is the output.
                if self._served_stale:
                    self._revise(stale=False)
                return self._last_good
            result = Extractor(self.program, fetcher=reads).extract_to_xml(
                url=self.url, root_name=self.root_name
            )
        except Exception:
            stale = self._stale()
            if stale is not None:
                self._revise(stale=True)
                return stale
            raise
        self._revise(stale=False)
        result.attributes["source"] = self.url
        if reads is not None:
            self._trace = (key, reads.reads)
            self._last_good = result
        return result

    def _revise(self, *, stale: bool) -> None:
        self.revision = fresh_revision()
        self._served_stale = stale


class XmlSourceComponent(Component):
    """A source component fed by a callable returning XML (used in tests)."""

    def __init__(self, name: str, supplier: Callable[[], XmlElement]) -> None:
        super().__init__(name)
        self.supplier = supplier

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        return self.supplier()


class DatalogQueryComponent(_SourceComponent):
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
        super().__init__(name, resilience)
        from ..mdatalog.evaluator import MonadicTreeEvaluator

        self.supplier = supplier
        self.root_name = root_name or name
        # The supplier is this component's acquisition boundary: with a
        # policy its call is retried, and the last good output can be
        # served stale when acquisition or evaluation fails.
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
            stale = self._stale()
            if stale is not None:
                return stale.copy()  # deep: the caller may edit it
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

    def cache_info(self):
        """Fixpoint-cache statistics of the underlying evaluator."""
        return self._evaluator.fixpoint_cache_info()


# ---------------------------------------------------------------------------
# Stage 2: integration
# ---------------------------------------------------------------------------


class IntegrationComponent(Component):
    """Merges the XML documents of several upstream components (stage 2)
    under one new root, linked as they are, not copied."""

    def __init__(self, name: str, root_name: Optional[str] = None) -> None:
        super().__init__(name)
        self.root_name = root_name or name

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        merged = XmlElement(self.root_name)
        merged.children = list(inputs)
        return merged


class JoinComponent(Component):
    """Joins records from two upstream documents on a key element.

    Used e.g. by the "Now Playing" application to attach chart positions and
    lyrics to the currently playing song.  Joined records share their
    children and matches with the inputs.
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
            joined = XmlElement(record.name, record.attributes, record.text)
            joined.children = list(record.children)
            key = self._key_of(record, self.key)
            if key:
                joined.children.extend(index.get(key, ()))
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
    """Keeps only the records satisfying a predicate (shared, not copied)."""

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
                    result.append(record)
        return result


class SortComponent(Component):
    """Sorts records by a key element (numeric when possible), sharing them."""

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
            records.extend(document.iter(self.record_name))

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
