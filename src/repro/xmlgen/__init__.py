"""XML output substrate: element model, serialiser and parser."""

from .document import XmlElement
from .serializer import parse_xml, to_compact_xml, to_xml

__all__ = [
    "XmlElement",
    "parse_xml",
    "to_compact_xml",
    "to_xml",
]
