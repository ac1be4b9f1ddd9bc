"""Source monitoring and change detection.

Section 5: "often source sites have to be monitored for changes, and changed
information has to be automatically extracted and processed"; Section 6.2:
"The system will send the actual flight status to the user by means of an SMS
message, but only if the status changed between consecutive requests."

:class:`ChangeDetector` keeps a fingerprint of the last snapshot's records per
key and reports added / removed / changed records between consecutive
snapshots;
:class:`ChangeGatedDeliverer` wraps a deliverer so that it only fires when a
change was detected.

Degraded documents — outputs a resilient component served from its
last-good copy, marked ``stale="true"`` (see
:class:`repro.server.components.WrapperComponent`) — are *not* observed:
a stale snapshot carries no new information, so it must neither fire a
delivery nor perturb the detector's baseline.
:meth:`Pipeline.resilience_report <repro.server.pipeline.Pipeline.resilience_report>`
and :meth:`TransformationServer.resilience_report
<repro.server.pipeline.TransformationServer.resilience_report>` collect the
components' failure accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..xmlgen.document import XmlElement
# Not called here; kept importable because perfbench/layers.py wraps it.
from ..xmlgen.serializer import to_compact_xml  # noqa: F401
from .components import Component, DelivererComponent, Delivery


def is_stale(document: XmlElement) -> bool:
    """Whether ``document`` is a degraded (served-stale) output."""
    return document.attributes.get("stale") == "true"


@dataclass
class ChangeReport:
    """The difference between two consecutive snapshots of a record set."""

    added: List[XmlElement] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    changed: List[XmlElement] = field(default_factory=list)

    @property
    def has_changes(self) -> bool:
        return bool(self.added or self.removed or self.changed)

    def summary(self) -> str:
        return (
            f"{len(self.added)} added, {len(self.changed)} changed, "
            f"{len(self.removed)} removed"
        )


class ChangeDetector:
    """Record-level change detection keyed by a record's key element.

    Records that share a key (an empty key included) are fingerprinted
    together, in document order: a change to any of them reports every
    record under that key as changed.  A fingerprint is the record's exact
    structure: name, attributes in order, text and child fingerprints.

    For its last observation the detector keeps each frozen record (see
    :meth:`~repro.xmlgen.document.XmlElement.freeze`) with its key text and
    fingerprint.  A frozen tree never changes, so a record that is the same
    frozen object next time reuses both; inside a pipe most records are.
    Every other record is fingerprinted afresh, so a caller that edits an
    unfrozen record in place between two calls still sees it reported as
    changed.
    """

    def __init__(self, record_name: str, key: str) -> None:
        self.record_name = record_name
        self.key = key
        self._previous: Dict[str, List[tuple]] = {}
        # id -> (record, key text, fingerprint) for the frozen records of
        # the last observation.  Holding the record keeps its id from being
        # recycled while the entry lives; `is` confirms it all the same.
        self._known: Dict[int, Tuple[XmlElement, str, tuple]] = {}

    def observe(self, document: XmlElement) -> ChangeReport:
        """Compare ``document`` with the previous snapshot and remember it."""
        known_records = self._known
        known_now: Dict[int, Tuple[XmlElement, str, tuple]] = {}
        current: Dict[str, Tuple[List[tuple], List[XmlElement]]] = {}
        for record in document.iter(self.record_name):
            known = known_records.get(id(record))
            if known is None or known[0] is not record:
                known = (record, " ".join(record.findtext(self.key).split()), _fingerprint(record))
            if record.frozen:
                known_now[id(record)] = known
            key_value = known[1]
            entry = current.get(key_value)
            if entry is None:
                entry = current[key_value] = ([], [])
            entry[0].append(known[2])
            entry[1].append(record)
        report = ChangeReport()
        for key_value, (fingerprints, records) in current.items():
            if key_value not in self._previous:
                report.added.extend(records)
            elif self._previous[key_value] != fingerprints:
                report.changed.extend(records)
        for key_value in self._previous:
            if key_value not in current:
                report.removed.append(key_value)
        self._previous = {key: fingerprints for key, (fingerprints, _) in current.items()}
        self._known = known_now
        return report


def _fingerprint(element: XmlElement) -> tuple:
    """``element``'s exact structure as a comparable value."""
    return (
        element.name,
        tuple(element.attributes.items()),
        element.text,
        tuple(map(_fingerprint, element.children)),
    )


class ChangeGatedDeliverer(Component):
    """Forwards to an inner deliverer only when the snapshot changed.

    The first observation is treated as a baseline and (by default) not
    delivered — matching the flight application, where the user is notified
    only about *changes* of the status.
    """

    def __init__(
        self,
        name: str,
        inner: DelivererComponent,
        detector: ChangeDetector,
        deliver_initial: bool = False,
        message: Optional[Callable[[ChangeReport], str]] = None,
    ) -> None:
        super().__init__(name)
        self.inner = inner
        self.detector = detector
        self.deliver_initial = deliver_initial
        self.message = message
        self._seen_initial = False
        #: Activations skipped because the input was a served-stale copy.
        self.stale_skips = 0

    @property
    def deliveries(self) -> List[Delivery]:
        return self.inner.deliveries

    def process(self, inputs: List[XmlElement]) -> XmlElement:
        document = inputs[0] if inputs else XmlElement(self.name)
        if is_stale(document):
            # Degraded output: the upstream source is down and this is its
            # last-good copy.  There is nothing new to deliver, and
            # observing it would churn the baseline (the root attribute is
            # invisible to record-level fingerprints, but record sets may
            # differ while the source flaps).  Pass it through untouched.
            self.stale_skips += 1
            return document
        report = self.detector.observe(document)
        is_initial = not self._seen_initial
        self._seen_initial = True
        should_deliver = report.has_changes and (self.deliver_initial or not is_initial)
        if should_deliver:
            if self.message is not None:
                summary = XmlElement("change")
                summary.text = self.message(report)
                self.inner.process([summary])
            else:
                changes = XmlElement("changes")
                for record in report.added + report.changed:
                    changes.append(record.copy())
                self.inner.process([changes])
        return document
