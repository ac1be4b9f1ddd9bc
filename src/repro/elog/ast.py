"""Abstract syntax of Elog programs.

A standard Elog rule (Section 3.3) has the form

    New(S, X) <- Par(_, S), Ex(S, X), Conditions(S, X)

where ``S`` is the parent-instance variable, ``X`` the pattern-instance
variable, ``Ex`` an extraction definition atom (``subelem``, ``subtext``,
``subsq``, ``subatt`` or ``document``), and the conditions restrict the
extracted instances.  Specialisation rules lack the extraction atom and match
a subset of the parent pattern's nodes.

Pattern predicates are *binary* — the first argument carries the parent
instance — which is what lets the extracted instances form the hierarchical
pattern instance base that the XML Designer turns into XML (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, List, Optional, Tuple, Union

from .epath import ElementPath
from .textpath import AttributePath, TextPath

ROOT_PATTERN = "document"  # reserved pattern name for the document root


# ---------------------------------------------------------------------------
# Extraction definition atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubElem:
    """Tree extraction: descendants of the parent node matching a path."""

    path: ElementPath
    target: str = "X"

    def __str__(self) -> str:
        return f"subelem(S, {self.path}, {self.target})"


@dataclass(frozen=True)
class SubText:
    """String extraction: substrings of the parent node's text."""

    path: TextPath
    target: str = "X"

    def __str__(self) -> str:
        return f"subtext(S, {self.path}, {self.target})"


@dataclass(frozen=True)
class SubAtt:
    """Attribute extraction: the value of an attribute of the parent node."""

    path: AttributePath
    target: str = "X"

    def __str__(self) -> str:
        return f"subatt(S, {self.path.attribute}, {self.target})"


@dataclass(frozen=True)
class SubSequence:
    """Sequence extraction (``subsq``): the largest runs of consecutive
    children of a node matching ``inner`` that start with a node matching
    ``first`` and end with a node matching ``last`` (Figure 5's
    ``<tableseq>`` pattern)."""

    scope: ElementPath
    first: ElementPath
    last: ElementPath
    target: str = "X"

    def __str__(self) -> str:
        return f"subsq(S, {self.scope}, {self.first}, {self.last}, {self.target})"


@dataclass(frozen=True)
class DocumentSource:
    """Crawling atom: binds the parent variable to a fetched document root.

    ``url`` is either a literal URL or the name of a variable bound by a
    pattern reference / attribute extraction (enabling recursive crawling).
    """

    url: str
    is_variable: bool = False

    def __str__(self) -> str:
        if not self.is_variable:
            return f'document("{self.url}", S)'
        # document(_, S) reads every supplied document; document(S, X)
        # crawls to the URL its parent pattern's instance carries.
        return "document(_, S)" if self.url == "_" else f"document({self.url}, X)"


Extraction = Union[SubElem, SubText, SubAtt, SubSequence]


# ---------------------------------------------------------------------------
# Condition atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeforeCondition:
    """Context condition: a node matching ``path`` occurs *before* the target
    (within the parent subtree), at a document-order distance within
    ``[min_distance, max_distance]``; optionally binds the witness node."""

    path: ElementPath
    min_distance: int = 0
    max_distance: int = 10 ** 9
    bind: Optional[str] = None
    negated: bool = False

    def __str__(self) -> str:
        name = "notbefore" if self.negated else "before"
        bind = f", {self.bind}" if self.bind else ""
        return f"{name}(S, X, {self.path}, {self.min_distance}, {self.max_distance}{bind})"


@dataclass(frozen=True)
class AfterCondition:
    """Context condition: a node matching ``path`` occurs *after* the target."""

    path: ElementPath
    min_distance: int = 0
    max_distance: int = 10 ** 9
    bind: Optional[str] = None
    negated: bool = False

    def __str__(self) -> str:
        name = "notafter" if self.negated else "after"
        bind = f", {self.bind}" if self.bind else ""
        return f"{name}(S, X, {self.path}, {self.min_distance}, {self.max_distance}{bind})"


@dataclass(frozen=True)
class ContainsCondition:
    """Internal condition: the target subtree (does not) contain a node
    matching ``path``; optionally binds the witness node."""

    path: ElementPath
    bind: Optional[str] = None
    negated: bool = False

    def __str__(self) -> str:
        name = "notcontains" if self.negated else "contains"
        bind = f", {self.bind}" if self.bind else ""
        return f"{name}(X, {self.path}{bind})"


@dataclass(frozen=True)
class FirstSubtreeCondition:
    """Internal condition: keep only the first matching target per parent."""

    def __str__(self) -> str:
        return "firstsubtree(S, X)"


@dataclass(frozen=True)
class ConceptCondition:
    """Concept condition: ``isCurrency(Y)``, ``isDate(X)``, ...

    ``argument`` is either the target variable name or a variable bound by a
    ``regvar`` attribute condition / ``\\var[...]`` marker / ``bind`` field.
    """

    concept: str
    argument: str = "X"
    negated: bool = False

    def __str__(self) -> str:
        prefix = "not " if self.negated else ""
        return f"{prefix}{self.concept}({self.argument})"


@dataclass(frozen=True)
class ComparisonCondition:
    """Comparison condition: ``lt(Y, Z)`` etc. over bound values."""

    operator: str  # lt | le | gt | ge | eq | neq
    left: str
    right: str

    def __str__(self) -> str:
        return f"{self.operator}({self.left}, {self.right})"


@dataclass(frozen=True)
class PatternReference:
    """Pattern reference condition: the bound node must be an instance of
    another pattern (``price(_, Y)`` in the ``bids`` rule of Figure 5)."""

    pattern: str
    argument: str
    negated: bool = False

    def __str__(self) -> str:
        prefix = "not " if self.negated else ""
        return f"{prefix}{self.pattern}(_, {self.argument})"


Condition = Union[
    BeforeCondition,
    AfterCondition,
    ContainsCondition,
    FirstSubtreeCondition,
    ConceptCondition,
    ComparisonCondition,
    PatternReference,
]


# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElogRule:
    """One Elog rule (a *filter* in the visual metaphor)."""

    pattern: str
    parent: str
    extraction: Optional[Union[Extraction, DocumentSource]] = None
    conditions: Tuple[Condition, ...] = ()
    # Specialisation rules (footnote 6) have no extraction atom: they select a
    # subset of the parent pattern's own instances.
    document: Optional[DocumentSource] = None

    def is_specialisation(self) -> bool:
        return self.extraction is None and self.document is None

    def is_document_rule(self) -> bool:
        return self.document is not None

    def __str__(self) -> str:
        parts: List[str] = []
        document = self.document
        if document is None or (document.is_variable and document.url != "_"):
            parts.append(f"{self.parent}(_, S)")
        if document is not None:
            parts.append(str(document))
        if self.extraction is not None and not isinstance(self.extraction, DocumentSource):
            parts.append(str(self.extraction))
        parts.extend(str(condition) for condition in self.conditions)
        return f"{self.pattern}(S, X) <- " + ", ".join(parts) + "."


@dataclass(frozen=True)
class ElogProgram:
    """An Elog program: a set of rules defining patterns (a *wrapper*).

    A program is a value, never edited: a changed wrapper is a new program,
    e.g. ``dataclasses.replace(program, auxiliary_patterns={"row"})``.  The
    extractor keeps its fingerprint and compiled rules on it, built on
    first use (``_fingerprint``, ``_plan``).
    """

    rules: Tuple[ElogRule, ...] = ()
    # Patterns whose instances should not appear in the XML output.
    auxiliary_patterns: FrozenSet[str] = frozenset()
    _fingerprint: Any = field(default=None, init=False, repr=False, compare=False)
    _plan: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "auxiliary_patterns", frozenset(self.auxiliary_patterns))

    def patterns(self) -> List[str]:
        seen: List[str] = []
        for rule in self.rules:
            if rule.pattern not in seen:
                seen.append(rule.pattern)
        return seen

    def rules_for(self, pattern: str) -> List[ElogRule]:
        return [rule for rule in self.rules if rule.pattern == pattern]

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)
