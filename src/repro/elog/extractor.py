"""The Extractor: the Elog program interpreter.

Section 3.1: "The Extractor is the Elog program interpreter that performs the
actual extraction based on a given Elog program.  The Extractor, provided
with an HTML document and a previously constructed program, generates as its
output a pattern instance base."

Evaluation proceeds to a fixpoint over the program's rules (so patterns may
reference patterns defined later, and recursive wrapping / crawling works):
in every round, each rule is applied to all instances of its parent pattern,
its extraction definition produces candidate targets, candidates are filtered
through the rule's conditions, and surviving candidates become new pattern
instances (duplicates are eliminated by the instance base).  Rounds repeat
until one adds nothing, at most ``max_rounds`` times.

Rounds are change-driven.  Every rule reads only the instances of a few
patterns: a rule over a parent pattern reads that pattern's, a
``document(_, S)`` or literal-URL rule (``document("url", S)``) the
``document`` instances (the supplied and fetched documents), and a crawl
rule (``document(S, X)`` over a variable) both; each also reads the patterns
its pattern-reference conditions name.  Instances are never removed, so when
none of those counts moved since the rule last ran, its inputs are the same
and re-applying it would derive nothing new; the rule is skipped.  A run that
tried a fetch is the exception: it is re-applied next round whatever the
counts, so a fetch that failed is retried.  Every round therefore derives
exactly what re-applying every rule would.  A literal-URL rule tries no
fetch once its literal matches a known document, so Figure 5's ``tableseq``
runs once per page.

One witness memo (see :mod:`repro.elog.conditions`) serves every candidate
of an ``extract`` call, so a context condition scans its scope once per
call rather than once per candidate, and bisects the scan's result to its
distance window.

A built :class:`ElogProgram` is never edited, so each rule's plan is
derived once per program and kept on it (:func:`_rule_plans`): the patterns
the rule reads, its per-candidate conditions (all but ``firstsubtree``)
compiled, whether ``firstsubtree`` keeps only the first accepted candidate,
and a ``subsq`` scope path made lenient.  So a candidate dispatches on
nothing, and one condition context per rule and parent instance is
re-targeted at each candidate; a candidate of a rule with no condition left
is accepted without one.  Element paths run on the automaton memoised per
step sequence (:mod:`repro.elog.epath`), and regular expressions were
compiled when the program was parsed.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..tree.document import Document
from ..tree.node import Node
from ..xmlgen.document import XmlElement
from .ast import (
    ROOT_PATTERN,
    ElogProgram,
    ElogRule,
    FirstSubtreeCondition,
    PatternReference,
    SubAtt,
    SubElem,
    SubSequence,
    SubText,
)
from .concepts import DEFAULT_CONCEPTS, ConceptRegistry
from .conditions import (
    CompiledCondition,
    ConditionContext,
    WitnessMemo,
    compile_condition,
    lenient_path,
)
from .epath import ElementPath
from .instance_base import PatternInstance, PatternInstanceBase, by_anchor

# A candidate target: a node, a run of sibling nodes, or an extracted string,
# together with the variable bindings produced by the extraction.
Candidate = Tuple[Union[Node, List[Node], str], Dict[str, object]]


class Page:
    """One fetched page: its URL, a validator and the lazily parsed document.

    The validator tells a later fetch of the same URL whether the page
    changed, the role an HTTP ETag plays (RFC 9110 §13): equal validators
    mean the same page.  ``None`` means the page cannot be revalidated, so
    a consumer must treat it as changed every time.  :attr:`document`
    parses on first access and memoises the tree, so a page whose
    validator matched is never parsed.
    """

    __slots__ = ("url", "validator", "_document", "_parse")

    def __init__(
        self,
        url: str,
        validator: object = None,
        *,
        document: Optional[Document] = None,
        parse: Optional[Callable[[], Document]] = None,
    ) -> None:
        if (document is None) == (parse is None):
            raise ValueError("a Page takes exactly one of document= and parse=")
        self.url = url
        self.validator = validator
        self._document = document
        self._parse = parse

    @property
    def document(self) -> Document:
        if self._document is None:
            assert self._parse is not None
            self._document, self._parse = self._parse(), None
        return self._document


class Fetcher:
    """Interface for page acquisition (implemented by repro.web).

    The one primitive is :meth:`fetch_page`: it returns a :class:`Page`
    carrying a validator and a lazily parsed document, so a caller can tell
    an unchanged page before anything is parsed.  Wrappers (retry, fault
    injection) implement only :meth:`fetch_page`.  :meth:`fetch` is the
    convenience ``fetch_page(url).document`` that the :class:`Extractor`
    reads through.
    """

    def fetch_page(self, url: str) -> Page:  # pragma: no cover - interface
        raise NotImplementedError

    def fetch(self, url: str) -> Document:
        """The parsed document at ``url``: ``fetch_page(url).document``."""
        return self.fetch_page(url).document


class ExtractionError(RuntimeError):
    """Raised on unresolvable programs (e.g. crawling without a fetcher)."""


class _Extraction:
    """The state of one :meth:`Extractor.extract` call."""

    __slots__ = ("base", "fetched_urls", "witnesses", "fetches")

    def __init__(self) -> None:
        self.base = PatternInstanceBase()
        #: The documents supplied with a URL or fetched, by URL.
        self.fetched_urls: Dict[str, PatternInstance] = {}
        self.witnesses: WitnessMemo = {}
        #: How many fetches were tried, failed ones included.
        self.fetches = 0


class Extractor:
    """Interpreter for Elog programs."""

    def __init__(
        self,
        program: ElogProgram,
        fetcher: Optional[Fetcher] = None,
        concepts: Optional[ConceptRegistry] = None,
        max_rounds: int = 10,
        max_documents: int = 64,
    ) -> None:
        self.program = program
        self.fetcher = fetcher
        self.concepts = concepts or DEFAULT_CONCEPTS
        self.max_rounds = max_rounds
        self.max_documents = max_documents

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def extract(
        self,
        document: Optional[Document] = None,
        documents: Optional[Sequence[Document]] = None,
        url: Optional[str] = None,
    ) -> PatternInstanceBase:
        """Run the program and return the pattern instance base.

        Any combination of a single ``document``, several ``documents`` and a
        start ``url`` (requires a fetcher) may be given; ``document``
        extraction rules may fetch further pages through the fetcher.
        """
        run = _Extraction()
        base = run.base
        for given in list(documents or []) + ([document] if document is not None else []):
            instance = base.add_document_root(given)
            if given.url:
                run.fetched_urls[given.url] = instance
        if url is not None:
            # The start URL is load-bearing: its fetch errors propagate (the
            # batch paths turn them into per-slot ErrorResults), unlike
            # crawling targets discovered mid-extraction, which stay lenient.
            instance = self._fetch_document(url, run, parent=None, propagate=True)
            if instance is None:
                raise ExtractionError(f"cannot fetch start url {url!r} without a fetcher")

        plans = _rule_plans(self.program)
        last_counts: List[Optional[Tuple[int, ...]]] = [None] * len(plans)
        for _ in range(self.max_rounds):
            changed = False
            for index, plan in enumerate(plans):
                counts = tuple(base.count(pattern) for pattern in plan.inputs)
                if counts == last_counts[index]:
                    continue
                fetches = run.fetches
                if self._apply_rule(plan, run):
                    changed = True
                # A run that tried a fetch runs again next round, to retry it.
                last_counts[index] = counts if run.fetches == fetches else None
            if not changed:
                break
        return base

    def extract_to_xml(
        self,
        document: Optional[Document] = None,
        documents: Optional[Sequence[Document]] = None,
        url: Optional[str] = None,
        root_name: str = "result",
    ) -> XmlElement:
        """Extraction followed by the XML Designer / Transformer step."""
        base = self.extract(document=document, documents=documents, url=url)
        return base.to_xml(root_name=root_name, auxiliary=self.program.auxiliary_patterns)

    # ------------------------------------------------------------------
    # Rule application
    # ------------------------------------------------------------------
    def _apply_rule(self, plan: _RulePlan, run: _Extraction) -> bool:
        """Apply ``plan.rule`` once; whether the instance base grew.

        Documents the rule fetched count: a crawl round whose only effect is
        a newly fetched page (say, a target retried after a failed fetch)
        still hands later rules a new ``document`` instance.
        """
        rule, checks = plan.rule, plan.checks
        base = run.base
        size = len(base)
        for parent in self._parent_instances(rule, run):
            candidates = self._candidates(plan, parent)
            context: Optional[ConditionContext] = None
            if checks and candidates:
                context = ConditionContext(
                    parent_node=parent.node,
                    parent_nodes=parent.nodes,
                    target="",
                    instance_base=base,
                    concepts=self.concepts,
                    witnesses=run.witnesses,
                )
            accepted: List[PatternInstance] = []
            for target, bindings in candidates:
                # Every candidate carries its own fresh bindings dict, so it
                # goes to the context, or straight to the instance, uncopied.
                if context is not None:
                    context.target, context.bindings = target, bindings
                    satisfied = self._satisfy(checks, 0, context)
                    if satisfied is None:
                        continue
                    bindings = satisfied
                accepted.append(self._instance(rule, parent, target, bindings))
            if accepted and plan.first_only:
                accepted = [min(accepted, key=by_anchor)]
            for instance in accepted:
                base.add_instance(instance)
        return len(base) != size

    def _parent_instances(self, rule: ElogRule, run: _Extraction) -> List[PatternInstance]:
        base = run.base
        if rule.document is None:
            return base.instances_of(rule.parent)
        if rule.document.is_variable and rule.document.url == "_":
            # document(_, S): the rule applies to every supplied document.
            return base.instances_of(ROOT_PATTERN)
        if rule.document.is_variable:
            # crawling: the parent pattern's instances carry URLs to fetch
            parents: List[PatternInstance] = []
            for carrier in base.instances_of(rule.parent):
                target_url = carrier.text().strip()
                if not target_url:
                    continue
                instance = self._fetch_document(target_url, run, parent=carrier)
                if instance is not None:
                    parents.append(instance)
            return parents
        # literal URL: reuse an already known document or fetch it
        literal = rule.document.url
        matches = [
            instance
            for instance in base.instances_of(ROOT_PATTERN)
            if _url_matches(literal, instance.value)
        ]
        if matches:
            return matches
        instance = self._fetch_document(literal, run, parent=None)
        if instance is not None:
            return [instance]
        # Fall back to "any supplied document" so wrappers written against a
        # live URL still run against locally supplied example pages.
        return base.instances_of(ROOT_PATTERN)

    def _fetch_document(
        self,
        url: str,
        run: _Extraction,
        parent: Optional[PatternInstance],
        propagate: bool = False,
    ) -> Optional[PatternInstance]:
        fetched_urls = run.fetched_urls
        if url in fetched_urls:
            return fetched_urls[url]
        if self.fetcher is None or len(fetched_urls) >= self.max_documents:
            return None
        run.fetches += 1
        try:
            document = self.fetcher.fetch(url)
        # ConnectionError/TimeoutError join KeyError in the lenient set: a
        # crawl target whose retries were exhausted by a resilient fetcher
        # is skipped exactly like a missing page (FetchError is a KeyError).
        except (KeyError, ConnectionError, TimeoutError):
            if propagate:
                raise
            return None
        instance = PatternInstance(
            pattern=ROOT_PATTERN,
            parent=parent,
            node=document.root,
            document=document,
            value=url,
        )
        added = run.base.add_instance(instance)
        fetched_urls[url] = added or instance
        return fetched_urls[url]

    # ------------------------------------------------------------------
    # Candidate generation (the extraction definition atoms)
    # ------------------------------------------------------------------
    def _candidates(self, plan: _RulePlan, parent: PatternInstance) -> List[Candidate]:
        extraction = plan.rule.extraction
        if extraction is None:
            # specialisation rule: the candidate is the parent's own node(s)
            if parent.is_sequence_instance:
                return [(list(parent.nodes or []), {})]
            if parent.node is not None:
                return [(parent.node, {})]
            return [(parent.value or "", {})]
        if isinstance(extraction, SubElem):
            return self._subelem_candidates(extraction, parent)
        if isinstance(extraction, (SubText, SubAtt)):
            return [
                (value, dict(bindings))
                for member in parent.member_nodes()
                for value, bindings in extraction.path.find_matches(member)
            ]
        if isinstance(extraction, SubSequence):
            assert plan.lenient_scope is not None
            return self._subsq_candidates(extraction, plan.lenient_scope, parent)
        raise ExtractionError(f"unknown extraction atom {extraction!r}")

    def _subelem_candidates(self, extraction: SubElem, parent: PatternInstance) -> List[Candidate]:
        results: List[Candidate] = []
        if parent.is_sequence_instance:
            for member in parent.member_nodes():
                # the sequence acts as a virtual parent whose children are the
                # member nodes: the first path step may match the member itself
                bindings = _match_member(extraction.path, member)
                if bindings is not None:
                    results.append((member, bindings))
                results.extend(
                    (node, dict(found))
                    for node, found in extraction.path.find_targets(member)
                )
            return results
        for member in parent.member_nodes():
            results.extend(
                (node, dict(found)) for node, found in extraction.path.find_targets(member)
            )
        return results

    def _subsq_candidates(
        self, extraction: SubSequence, lenient_scope: ElementPath, parent: PatternInstance
    ) -> List[Candidate]:
        """Candidate runs of consecutive children (see Figure 5's tableseq).

        For every scope node matched by ``scope``, candidate runs start at a
        child matching ``first`` and end at a child matching ``last``.  To
        keep the candidate set linear in the number of children, for every
        possible start the longest run is generated, and for every possible
        end the longest run ending there is generated; the rule's context
        conditions (before/after with distance tolerances) then pick the
        intended run.
        """
        candidates: List[Candidate] = []
        # the scope path is matched anywhere below the parent (implicit ?),
        # and the parent itself qualifies when it matches the last step
        for parent_node in parent.member_nodes():
            scopes = [node for node, _ in lenient_scope.find_targets(parent_node)]
            if _match_member(extraction.scope, parent_node) is not None:
                scopes.append(parent_node)
            for scope in scopes:
                children = [c for c in scope.children if c.label not in ("#comment",)]
                starts = [
                    index
                    for index, child in enumerate(children)
                    if _match_member(extraction.first, child) is not None
                ]
                ends = [
                    index
                    for index, child in enumerate(children)
                    if _match_member(extraction.last, child) is not None
                ]
                if not starts or not ends:
                    continue
                # Both index lists ascend: the longest run from a start ends
                # at the last end, and the longest run to an end begins at
                # the first start.
                runs = [(start, ends[-1]) for start in starts if start <= ends[-1]]
                runs += [(starts[0], end) for end in ends if starts[0] <= end]
                for start, end in dict.fromkeys(runs):
                    candidates.append((children[start:end + 1], {}))
        return candidates

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------
    def _instance(
        self,
        rule: ElogRule,
        parent: PatternInstance,
        target: Union[Node, List[Node], str],
        bindings: Dict[str, object],
    ) -> PatternInstance:
        owner = parent
        if rule.is_specialisation() and parent.parent is not None:
            owner = parent.parent
        return PatternInstance(
            pattern=rule.pattern,
            parent=owner,
            node=target if isinstance(target, Node) else None,
            nodes=target if isinstance(target, list) else None,
            value=target if isinstance(target, str) else None,
            document=parent.document,
            bindings=bindings,
        )

    def _satisfy(
        self,
        checks: Sequence[CompiledCondition],
        position: int,
        context: ConditionContext,
    ) -> Optional[Dict[str, object]]:
        """Depth-first search over witness choices of binding conditions.

        A later condition (e.g. a pattern reference over a variable bound by
        an earlier ``before``) can reject one witness; backtracking then tries
        the next one.  A condition that binds nothing is a plain test.  The
        bindings returned are a dict no other candidate shares.
        """
        while position < len(checks):
            binds, evaluate = checks[position]
            position += 1
            if not binds:
                if not evaluate(context):
                    return None
                continue
            saved = context.bindings
            result = None
            for extension in evaluate(context):
                context.bindings = {**saved, **extension}
                result = self._satisfy(checks, position, context)
                if result is not None:
                    break
            context.bindings = saved
            return result
        return context.bindings


class _RulePlan(NamedTuple):
    """What the rounds need of one rule (see the module docstring)."""

    rule: ElogRule
    inputs: Tuple[str, ...]
    checks: Tuple[CompiledCondition, ...]
    first_only: bool
    lenient_scope: Optional[ElementPath]


def _rule_plans(program: ElogProgram) -> Tuple[_RulePlan, ...]:
    """The plan of every rule of ``program``, built on first use and kept on
    the program.  A racing first use builds two equal plans, which is
    harmless, so no lock is taken."""
    plans = program._plan
    if plans is None:
        plans = tuple(map(_rule_plan, program.rules))
        object.__setattr__(program, "_plan", plans)
    return plans


def _rule_plan(rule: ElogRule) -> _RulePlan:
    checked = [c for c in rule.conditions if not isinstance(c, FirstSubtreeCondition)]
    scope = rule.extraction.scope if isinstance(rule.extraction, SubSequence) else None
    return _RulePlan(
        rule,
        _rule_inputs(rule),
        tuple(map(compile_condition, checked)),
        len(checked) != len(rule.conditions),
        None if scope is None else lenient_path(scope),
    )


def _rule_inputs(rule: ElogRule) -> Tuple[str, ...]:
    """The patterns whose instances ``rule`` reads (see the module docstring)."""
    if rule.document is None:
        sources: Tuple[str, ...] = (rule.parent,)
    elif rule.document.is_variable and rule.document.url != "_":
        sources = (rule.parent, ROOT_PATTERN)
    else:
        sources = (ROOT_PATTERN,)
    references = [
        condition.pattern
        for condition in rule.conditions
        if isinstance(condition, PatternReference)
    ]
    return (*sources, *references)


def _match_member(path: ElementPath, node: Node) -> Optional[Dict[str, str]]:
    """Match a path against a node treating the node itself as the last step
    (used for sequence members and subsq endpoints)."""
    if not path.matches_path((node.label,)):
        return None
    return path._check_conditions(node)


# ---------------------------------------------------------------------------
# Wrapper identity
# ---------------------------------------------------------------------------

#: Content identity of a wrapper: the full rule text plus the
#: auxiliary-pattern set (which changes the XML output).
WrapperFingerprint = Tuple[str, FrozenSet[str]]


def wrapper_fingerprint(program: ElogProgram) -> WrapperFingerprint:
    """The content identity of ``program`` (rules text + auxiliary set),
    built on first use and kept on the program.

    A built program is never edited, so its rules are rendered once per
    program; a changed wrapper is a new program with a fingerprint of its
    own.  A racing first use builds two equal fingerprints, which is
    harmless, so no lock is taken.
    """
    fingerprint = program._fingerprint
    if fingerprint is None:
        fingerprint = (str(program), program.auxiliary_patterns)
        object.__setattr__(program, "_fingerprint", fingerprint)
    return fingerprint


def _url_matches(literal: str, candidate: Optional[str]) -> bool:
    if candidate is None:
        return False
    normalised_literal = literal.strip().rstrip("/").lower()
    normalised_candidate = candidate.strip().rstrip("/").lower()
    return (
        normalised_literal == normalised_candidate
        or normalised_literal in normalised_candidate
        or normalised_candidate in normalised_literal
    )
