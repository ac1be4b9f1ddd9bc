"""String path definitions — the string-extraction patterns of Elog.

Section 3.3: the second extraction method is string based.  The ``subtext``
predicate takes a *string path definition*: a regular expression specifying
which substrings of an element's text are extracted.  The expression may
contain ``\\var[NAME]`` markers, which both act as capture groups and bind
Elog variables usable in concept or comparison conditions (see the
``currency`` rule of Figure 5).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..tree.node import Node
from .epath import compile_variable_pattern


@dataclass(frozen=True)
class TextPath:
    """A compiled string path definition.

    The pattern is compiled at construction, so a malformed one raises
    :class:`~repro.elog.epath.EPathSyntaxError` from the parser.
    """

    pattern_text: str
    _pattern: re.Pattern = field(init=False, repr=False, compare=False)
    _names: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pattern, names = compile_variable_pattern(self.pattern_text)
        object.__setattr__(self, "_pattern", pattern)
        object.__setattr__(self, "_names", names)

    @classmethod
    def parse(cls, text: str) -> "TextPath":
        return cls(pattern_text=text.strip())

    def find_matches(self, node: Node) -> List[Tuple[str, Dict[str, str]]]:
        """All (matched substring, bindings) pairs in the node's text."""
        names = self._names
        results: List[Tuple[str, Dict[str, str]]] = []
        for match in self._pattern.finditer(node.normalized_text()):
            bindings = {name: match.group(name) for name in names if match.group(name)}
            results.append((match.group(0), bindings))
        return results

    def __str__(self) -> str:
        return self.pattern_text


@dataclass(frozen=True)
class AttributePath:
    """The ``subatt`` extraction: the value of an attribute of the parent node."""

    attribute: str

    @classmethod
    def parse(cls, text: str) -> "AttributePath":
        return cls(attribute=text.strip())

    def find_matches(self, node: Node) -> List[Tuple[str, Dict[str, str]]]:
        value = node.attributes.get(self.attribute)
        if value is None:
            return []
        return [(value, {})]

    def __str__(self) -> str:
        return self.attribute
