"""The reference change detector: fingerprints every record as compact XML.

This is the detector the Transformation Server used before records were
fingerprinted as structural values and frozen records reused theirs.  It
serialises every record on every call and keeps nothing but the
serialisations, so it is slow and obviously right;
``test_change_detector_differential.py`` holds
:class:`repro.server.monitoring.ChangeDetector` to its reports.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.server.monitoring import ChangeReport
from repro.xmlgen.document import XmlElement
from repro.xmlgen.serializer import to_compact_xml


class CompactXmlChangeDetector:
    """Record-level change detection over compact-XML fingerprints."""

    def __init__(self, record_name: str, key: str) -> None:
        self.record_name = record_name
        self.key = key
        self._previous: Dict[str, List[str]] = {}

    def observe(self, document: XmlElement) -> ChangeReport:
        current: Dict[str, Tuple[List[str], List[XmlElement]]] = {}
        for record in document.iter(self.record_name):
            key_value = " ".join(record.findtext(self.key).split())
            entry = current.get(key_value)
            if entry is None:
                entry = current[key_value] = ([], [])
            entry[0].append(to_compact_xml(record))
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
        return report
